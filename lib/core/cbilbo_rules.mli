(** The paper's Lemma 1 and Lemma 2: register-assignment conditions under
    which, after minimum interconnect assignment, some register must be a
    CBILBO in {e every} BIST embedding of a module.

    Lemma 2: register Rx is a CBILBO in all embeddings of module M iff
    Rx intersects every instance's operand set I_M^j and either
    (i) Rx contains all of O_M, or (ii) Rx contains part of O_M and some
    register Ry holds the rest of O_M while also intersecting every
    I_M^j (then either of Rx, Ry can be the CBILBO).

    The lemma is stated under the paper's assumptions (all operators
    commutative, minimum interconnect). In this repository it serves as
    the allocator's {e predictive} check — it runs during coloring, when
    no data path exists yet — while the exact post-interconnect ground
    truth is {!Bistpath_ipath.Ipath.cbilbo_unavoidable}. Measured
    against that ground truth on randomly generated designs (see
    test_cbilbo), the prediction has perfect precision and ~90% recall
    on all-commutative units; rare escapes occur when minimum-connection
    orientations tie and the interconnect optimizer picks a balanced one
    the lemma's model did not anticipate. For non-commutative units the
    pinned operand sides make it a further over-approximation — still
    safe for the avoidance filter, which only uses the verdict to prefer
    one merge over another. *)

type verdict = {
  mid : string;
  case_i : string list;  (** registers triggering case (i) *)
  case_ii : (string * string) list;  (** (Rx, Ry) pairs triggering case (ii) *)
}

val check_module :
  Sharing.ctx -> mid:string -> classes:(string * string list) list -> verdict
(** Evaluate Lemma 2 for one module against a (possibly partial) register
    assignment given as register-id/variable-list classes. A register
    assignment's classes are disjoint; should a variable appear in
    several classes anyway, it counts for the first of them only. *)

val forced : verdict -> bool
(** Does the verdict force a CBILBO for this module? *)

val any_forced : Sharing.ctx -> classes:(string * string list) list -> bool
(** Does any module end up with a forced CBILBO under this assignment? *)

val min_cbilbo_count : Sharing.ctx -> classes:(string * string list) list -> int
(** Size of a greedy cover of the forced modules' offers. Each forced
    module offers the registers that trigger its verdict (the case (i)
    register, or both members of the case (ii) pair); the cover
    repeatedly commits the register named in the most remaining offers
    (the first in name order on ties) and drops the offers it meets. One
    CBILBO register can so account for several modules. Greedy, so it
    is neither a lower nor an upper bound on the true minimum. *)

(** {2 Summary form}

    The lemma over per-register summaries, shared by the functions above
    and by the incremental CBILBO-avoidance filter of
    {!Testable_alloc}. *)

val offer : out_size:int -> assigned:int -> covers:('r -> bool) -> 'r list -> 'r list
(** [offer ~out_size ~assigned ~covers holders]: Lemma 2 for one module
    M under a disjoint assignment. [holders] are the registers holding
    part of O_M, [assigned] how many O_M variables they hold together,
    [covers r] whether [r] intersects every I_M^j. The result is the
    module's offer: [[r]] (case (i)), [[x; y]] (case (ii)) or [[]] when
    no CBILBO is forced. *)

val greedy_cover : compare:('r -> 'r -> int) -> 'r list list -> int
(** The greedy cover of {!min_cbilbo_count} over the given offers
    (empty offers are ignored), [compare] ordering the registers. Its
    size depends only on the multiset of offers. *)
