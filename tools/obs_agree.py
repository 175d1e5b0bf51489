"""Check that --obs-json reports from runs at different domain counts agree.

Usage: python3 tools/obs_agree.py RUN1.err RUN2.err ...

Each file holds a run's stderr; its last line that parses as a JSON
object with "spans" is the Obs report.  The pool's own levels
(par.map, par.chunked_map, par.domain<k>) depend on the domain count,
so they are spliced out: their children are promoted to the enclosing
span and merged by name.  What remains, every span path with its entry
count and every counter, must be equal in all the reports.
"""

import json
import sys


def report(path):
    found = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "spans" in obj:
                found = obj
    if found is None:
        sys.exit(f"{path}: no Obs JSON report")
    return found


def paths(spans, prefix=(), acc=None):
    """Span path -> total entry count, with par.* levels spliced out."""
    if acc is None:
        acc = {}
    for s in spans:
        if s["name"].startswith("par."):
            paths(s["children"], prefix, acc)
        else:
            p = prefix + (s["name"],)
            acc[p] = acc.get(p, 0) + s["count"]
            paths(s["children"], p, acc)
    return acc


def main(files):
    if len(files) < 2:
        sys.exit("usage: obs_agree.py RUN1 RUN2 [...]")
    base_file, base = files[0], report(files[0])
    base_paths, ok = paths(base["spans"]), True
    for f in files[1:]:
        r = report(f)
        ps = paths(r["spans"])
        for p in sorted(set(base_paths) | set(ps)):
            a, b = base_paths.get(p), ps.get(p)
            if a != b:
                ok = False
                print(f"span {' > '.join(p)}: {base_file} {a}, {f} {b}")
        if r["counters"] != base["counters"]:
            ok = False
            for k in sorted(set(base["counters"]) | set(r["counters"])):
                a, b = base["counters"].get(k), r["counters"].get(k)
                if a != b:
                    print(f"counter {k}: {base_file} {a}, {f} {b}")
    if not ok:
        sys.exit(1)
    print(f"obs agree: {len(base_paths)} span paths, "
          f"{len(base['counters'])} counters, {len(files)} runs")


if __name__ == "__main__":
    main(sys.argv[1:])
