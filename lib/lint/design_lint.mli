(** Static analysis of design files (Chapter 4) — scoping, arity and
    array-shape checks over the {!Rsg_lang.Ast}, without evaluating.

    Name resolution models Table 4.1's three tiers: the procedure
    frame (formals, locals and [do] loop variables), then the global
    environment (top-level assignments, assignments to non-frame names
    anywhere — [Env.set] falls through to the global frame — plus
    whatever the host installs: parameter-file bindings and sample
    cells, supplied via {!config}), then the cell table (sample cells
    and cells created by [mk_cell] under a string-literal name).

    Diagnostics: [L100] syntax error, [L101] unbound variable ([Error]
    when the host environment is known, [Warning] otherwise — the name
    may come from a parameter file), [L102] unused local, [L103]
    unused procedure, [L104] call arity mismatch, [L105]
    scalar-vs-array misuse of a declared local, [L106] duplicate
    procedure/formal/local, [L107] [subcell] binding that the called
    macro never defines, [L108] unknown function or macro. *)

type config = {
  globals : string list;
      (** names the host will bind before running: parameter-file
          bindings, [define_global] installs (e.g. the PLA's [lits] /
          [outs] encoding tables) *)
  cells : string list;  (** sample cell-table names *)
  env_known : bool;
      (** true when [globals]/[cells] describe the complete host
          environment, making unresolved names hard errors *)
}

val default_config : config
(** Empty environment, [env_known = false]. *)

val config_of_params : ?cells:string list -> Rsg_lang.Param.t -> config
(** Environment-known config from a parsed parameter file. *)

val check_string : ?file:string -> config -> string -> Diag.report
(** Parse then {!check_program}; parse failures become a single [L100]
    diagnostic instead of an exception. *)
