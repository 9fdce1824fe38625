(** The paper's testable register allocation (Section III.A-B).

    A perfect vertex elimination scheme is selected with sharing-degree /
    max-clique-size preferences, then vertices are colored in reverse
    PVES order choosing, among non-conflicting registers, the one whose
    sharing degree grows the most (Delta-SD), corrected by the Case 1 /
    Case 2 preferences (keep output variables of a module together; route
    input variables to registers that already feed the module) and by the
    Lemma-2 CBILBO-avoidance check. A new register is opened only when
    every existing one conflicts. *)

type options = {
  sd_ordering : bool;  (** SD/MCS-driven PVES; off = arbitrary MCS order *)
  case_preferences : bool;  (** Section III.A Case 1 and Case 2 *)
  cbilbo_avoidance : bool;  (** Section III.B Lemma-2 filter *)
}

val default_options : options
(** All three on — the full algorithm. *)

type trace_step = {
  vertex : string;
  chosen : string;  (** register id *)
  fresh : bool;  (** a new register was opened *)
  reason : string;
      (** "delta-sd" (largest Delta-SD), "case-preference" (a Case 1 or
          Case 2 register with a higher final SD overrode it) or
          "conflict-all" (every register conflicts: a fresh one) *)
}

val allocate :
  ?options:options ->
  Bistpath_dfg.Dfg.t ->
  Bistpath_dfg.Massign.t ->
  policy:Bistpath_dfg.Policy.t ->
  Bistpath_datapath.Regalloc.t * trace_step list
(** The assignment plus a decision trace (used to regenerate the paper's
    Section III walkthrough). Registers are named in creation order
    R1..Rk. Deterministic.

    Variables, units and registers are numbered once and the search keeps
    per-(register, unit) hit counts and Lemma-2 summaries up to date as
    variables are placed, so ranking a candidate costs O(units) and the
    CBILBO-avoidance filter re-evaluates only the units whose I/O sets
    hold the variable being placed (counted as [regalloc.lemma2_evals]). *)
