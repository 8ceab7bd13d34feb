(** IR -> surface-language pretty-printer.

    Produces text that {!Parse.program} accepts.  Each [Assign] prints
    as exactly one statement - [W1, W2 = R1 + R2 work N], or the bare
    read list [R1, R2 work N] when nothing is written - so the trip is
    structural: [Parse.program (to_string p)] equals [p] (expressions
    up to {!Symbolic.Expr.equal}) whenever each statement lists its
    reads before its writes, the order the parser builds.  The test
    suite checks this on the registry kernels and on fuzz programs. *)

val expr : Format.formatter -> Symbolic.Expr.t -> unit
(** Expression in surface syntax ([2^(e)] for pow2 atoms). *)

val to_string : Ir.Types.program -> string
