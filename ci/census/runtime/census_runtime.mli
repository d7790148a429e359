(** The branch census's runtime: per-module hit counters, written out at
    exit. *)

val register : string array -> int array
(** [register sites] returns a zeroed counter per site.  Instrumented code
    calls it once per module and increments a site's slot each time the
    site runs.  Each site reads [file:line:col kind binding pattern]. *)
