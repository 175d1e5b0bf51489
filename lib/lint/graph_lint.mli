(** Static analysis of connectivity graphs (Chapter 3) — the
    well-formedness conditions of the expansion algorithm, checked
    without expanding and without touching any node.

    The analyzer derives tentative placements along its own
    breadth-first spanning tree (independently of [Expand], so the
    lint-vs-expand agreement property in the test suite is a real
    cross-check) and reports:

    - [L201] nodes unreachable from the root (section 3.1: only a
      connected graph describes one structure);
    - [L204] edges whose interface is not declared in the table
      (section 2.4) — exactly the edges [Expand.run ~mode:`Collect]
      reports as [Missing];
    - [L205] non-tree edges whose implied placement disagrees with the
      spanning-tree placement: interface transforms composed around the
      fundamental cycle the edge closes do not reduce to identity
      (section 3.4's uniqueness argument) — exactly [Expand]'s
      [Mismatch] defects;
    - [L202] non-tree edges that {e do} agree — redundant but harmless,
      the "cycles are redundant" remark of section 3.1;
    - [L206] duplicate parallel edges (same source, peer and index);
    - [L203] same-celltype edges whose two readings [I°aa] vs
      [(I°aa)^-1] place differently (Figures 3.5-3.7) — a note, since
      any pitched regular structure contains them; the directed edge
      resolves the ambiguity, the note records that the direction
      matters;
    - [L208] interfaces declared in the table but referenced by no
      edge in either direction (dead interfaces) — the sample drew an
      interface the connectivity never exercises, or an edge meant to
      use it names another index.  Bilateral declarations are judged
      once, on the canonical (lexicographically ordered) cell pair. *)

open Rsg_core

val check :
  ?root:Graph.node -> ?source:string ->
  Interface_table.t -> Graph.node list -> Diag.report
(** Analyze the given nodes (the universe against which
    root-unreachability is judged).  [root] defaults to the first
    node; [source] labels the report (default ["graph"]). *)
