"""List public values that nothing outside their own module names.

Usage: python3 tools/unused_exports.py

For every `val` declared in a tracked lib/**/*.mli, look for a
reference in the tracked .ml/.mli files of lib/, bin/, bench/,
perfbench/, test/ and examples/, leaving out the module's own .ml/.mli
pair.  A file names `M.v` when it holds the qualified path `M.v` (or
`N.v` for a value of a nested `module N : sig`, or `A.v` where the file
says `module A = ....M`), or when it opens M (`open`, `let open`,
`include` or a local `M.( ... )`) and holds `v` as a word.  Comments
and strings count.  The check is textual: it can miss a dead value
whose name is common, and it cannot see a value used only through a
functor argument such as `Set.Make (M)`.

Each unnamed value is printed as `path: Module.value`; the exit status
is 1 when there is any.
"""

import os
import re
import subprocess
import sys

ROOTS = ("lib/", "bin/", "bench/", "perfbench/", "test/", "examples/")

IDENT = r"[a-z_][A-Za-z0-9_']*"
VAL = re.compile(r"^\s*val\s+(" + IDENT + r")\s*:")
NESTED = re.compile(r"^module\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b")
NESTED_END = re.compile(r"^end\b")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*([A-Z][A-Za-z0-9_'.]*)")
OPEN = re.compile(
    r"(?:\bopen!?\s+|\blet\s+open!?\s+|\binclude\s+)([A-Z][A-Za-z0-9_'.]*)"
    r"|\b([A-Z][A-Za-z0-9_'.]*)\.\("
)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def declared_values(path):
    """(nested module or None, value name) for every val of an .mli."""
    out = []
    nested = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = NESTED.match(line)
            if m:
                nested = m.group(1)
                continue
            if nested and NESTED_END.match(line):
                nested = None
                continue
            m = VAL.match(line)
            if m:
                out.append((nested, m.group(1)))
    return out


class Source:
    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        # alias -> last component of the module path it names
        self.aliases = {}
        for a, target in ALIAS.findall(self.text):
            self.aliases.setdefault(target.split(".")[-1], set()).add(a)
        self.opened = {(m.group(1) or m.group(2)).split(".")[-1]
                       for m in OPEN.finditer(self.text)}
        self.words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", self.text))

    def qualifiers(self, module):
        return {module} | self.aliases.get(module, set())

    def names(self, module, nested, value):
        if value not in self.words:
            return False
        quals = self.qualifiers(nested or module)
        for q in quals:
            if re.search(r"(?<![A-Za-z0-9_'])" + re.escape(q) + r"\."
                         + re.escape(value) + r"(?![A-Za-z0-9_'])",
                         self.text):
                return True
        return bool(quals & self.opened)


def main():
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True).stdout.strip()
    os.chdir(root)
    tracked = subprocess.run(
        ["git", "ls-files", "*.ml", "*.mli"],
        capture_output=True, text=True, check=True).stdout.split()
    tracked = [p for p in tracked if p.startswith(ROOTS) and os.path.exists(p)]
    sources = {p: Source(p) for p in tracked}
    unused = []
    for mli in sorted(p for p in tracked
                      if p.startswith("lib/") and p.endswith(".mli")):
        module = module_name(mli)
        own = {mli, mli[:-1]}
        for nested, value in declared_values(mli):
            if not any(src.names(module, nested, value)
                       for p, src in sources.items() if p not in own):
                qual = module + ("." + nested if nested else "")
                unused.append(f"{mli}: {qual}.{value}")
    for line in unused:
        print(line)
    if unused:
        print(f"{len(unused)} public values have no outside reference",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
