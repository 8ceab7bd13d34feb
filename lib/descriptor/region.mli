(** Concrete expansion of descriptors: the validation oracle.

    Expands a (rectangular, constant-evaluable) PD group into the exact
    set of flat addresses it denotes under a concrete environment -
    either for one parallel iteration (an ID region) or for the whole
    phase.  The test suite checks these sets against the direct IR
    interpretation in {!Ir.Enumerate}, which is what makes the
    descriptor algebra trustworthy without the paper's omitted proofs. *)

open Symbolic

exception Not_rectangular of string
(** Raised when a dim's count or stride does not evaluate to a constant
    under the environment (non-uniform dims that survived coalescing). *)

val addresses : Env.t -> Pd.t -> par:int option -> (int, unit) Hashtbl.t
(** Union over all groups and rows.  [par = Some i] fixes the parallel
    iteration; [None] sweeps all of them. *)

val sorted : (int, unit) Hashtbl.t -> int list
