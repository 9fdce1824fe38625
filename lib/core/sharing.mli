(** Sharing degrees (Definitions 4 and 5): how many module variable sets
    a variable or a register intersects. A register with a high sharing
    degree can serve as test-pattern generator (input sets) or signature
    analyzer (output sets) for many modules at once. *)

type ctx
(** Precomputed I_M / O_M sets and per-instance operand sets I_M^j for a
    (DFG, module assignment) pair, numbered once so the allocators work
    on integer ids; modules with no bound operations are ignored. *)

val make : Bistpath_dfg.Dfg.t -> Bistpath_dfg.Massign.t -> ctx

val var_id : ctx -> string -> int option

val unit_id : ctx -> string -> int option
(** [None] for unknown or unused units. *)

val units : ctx -> string list
(** Module ids with at least one instance, sorted. *)

val in_set : ctx -> string -> Bistpath_dfg.Dfg.Sset.t
(** I_M of a unit. *)

val out_set : ctx -> string -> Bistpath_dfg.Dfg.Sset.t
(** O_M of a unit. *)

val sd_var : ctx -> string -> int
(** SD(v) = #{M : v in I_M} + #{M : v in O_M}. *)

val sd_vars : ctx -> string list -> int
(** SD of a register holding the given variables: the number of distinct
    input sets plus distinct output sets intersected (Definition 5). *)

val delta_sd : ctx -> string list -> string -> int
(** [delta_sd ctx reg v] = SD(reg + v) - SD(reg): the increase in the
    register's sharing degree from absorbing [v]. *)

val source_units : ctx -> string -> string list
(** Units producing the variable (0 or 1 for a well-formed DFG). *)

val dest_units : ctx -> string -> string list
(** Units consuming the variable, sorted, distinct. *)

(** {2 Integer ids}

    Variables are numbered by their index in
    {!Bistpath_dfg.Dfg.variables}, used units by their index in
    {!units}, instances (operations) in DFG order. The arrays returned
    below belong to the context: read them, never write them. *)

val unit_count : ctx -> int

val instance_count : ctx -> int

val unit_name : ctx -> int -> string

val in_units : ctx -> int -> int array
(** Units M with the variable in I_M, ascending; these are also the
    units consuming it. *)

val out_units : ctx -> int -> int array
(** Units M with the variable in O_M, ascending. *)

val module_units : ctx -> int -> int array
(** Union of {!in_units} and {!out_units}, ascending. *)

val src_units : ctx -> int -> int array
(** The unit producing the variable (0 or 1 entries). *)

val var_instances : ctx -> int -> int array
(** Instances j with the variable in I_M^j, ascending. *)

val instance_unit : ctx -> int -> int
(** The unit an instance is bound to. *)

val multiplicity : ctx -> int -> int
(** TM(M): the number of instances bound to the unit. *)

val out_size : ctx -> int -> int
(** |O_M|. *)
