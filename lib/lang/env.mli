(** Environment frames.

    Frames are hash tables, as in the thesis (section 4.5), and are
    sized to the procedure's formal + local count at call time.  The
    chain is lexical-but-flat: every procedure frame's parent is the
    global frame (section 4.1 — a lookup tries the executing
    procedure's environment, then the global environment; dynamic
    scoping was considered and rejected). *)

val create_global : unit -> Value.env

val create_frame : ?size:int -> name:string -> Value.env -> Value.env
(** [create_frame ~name parent]. *)

val find : Value.env -> string -> Value.t option
(** Walk the frame chain. *)

val define : Value.env -> string -> Value.t -> unit
(** Bind in this frame (shadowing outer bindings). *)

val set : Value.env -> string -> Value.t -> unit
(** Assign in the innermost frame that already binds the name, else
    define in this frame. *)
