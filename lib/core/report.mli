(** Markdown analysis report: everything the pipeline knows about a
    program, in one human-readable document - LCG (with a Graphviz
    source block), constraint model, solved distribution, communication
    schedule summary, simulated efficiency vs. the BLOCK baseline, and
    the dataflow-validation verdict. *)

val markdown : Pipeline.t -> string
