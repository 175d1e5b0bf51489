(** {!Rsg_obs.Json}, re-exported for code that names it here; the
    types are equal. *)

include module type of struct
  include Rsg_obs.Json
end
