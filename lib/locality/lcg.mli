(** The Locality-Communication Graph (paper, Sec. 4, Fig. 6).

    One connected directed graph per array: a node for every phase that
    references the array (annotated R / W / R+W / P and with its
    descriptors), an edge between control-flow-consecutive accessor
    phases, labelled L / C / D by Theorem 2.  When the program repeats
    (an enclosing timestep loop), a back edge closes the cycle.

    After labeling, D edges are removed and the graph splits at C edges
    into {e chains}: maximal runs of L-connected nodes covering a
    common data sub-region, which is what the ILP distributes as a
    unit. *)

open Symbolic
open Descriptor

type node = {
  phase_idx : int;  (** index into the program's phase list *)
  name : string;
  attr : Ir.Liveness.attr;
  pd : Pd.t;  (** simplified phase descriptor *)
  id : Id.t;
  sym : Symmetry.t;
  intra : Intra.verdict;
  par_n : int;  (** concrete parallel trip count *)
  par_expr : Expr.t;  (** symbolic parallel trip count *)
  work : int;  (** total abstract work of the phase under [env] *)
  halo : int;
      (** concrete width of the frontier between consecutive parallel
          iterations' regions: [UL(I(0)) - LB(I(1)) + 1] when positive,
          else 0.  This is the span a runtime replicates as ghost cells
          (Theorem 1c) and the volume a frontier update ships. *)
}

type edge = {
  src : int;  (** positions within [nodes] *)
  dst : int;
  label : Table1.label;
  solution : Balance.solution option;
  relation : Balance.relation option;
  back : bool;  (** the wrap-around edge of a repeating program *)
}

type graph = { array : string; nodes : node list; edges : edge list }

type t = {
  prog : Ir.Types.program;
  env : Env.t;
  h : int;
  graphs : graph list;
}

val build : Ir.Types.program -> env:Env.t -> h:int -> t
(** Runs the whole front half of the paper: descriptors, simplification,
    IDs, symmetry, attributes, intra- and inter-phase analysis. *)

val chains : graph -> int list list
(** Node positions grouped into chains: D and C edges both break the
    sequence; the distinction (redistribution vs nothing) lives on the
    edges themselves. *)

val node_of_phase : graph -> phase_idx:int -> node option

val pp : Format.formatter -> t -> unit

val region_bounds : t -> node -> par:int -> (int * int) option
(** Concrete [lo, hi] of the node's ID region at one parallel
    iteration; [None] when the descriptor is not rectangular. *)

val to_dot : t -> string
(** Graphviz rendering: one cluster per array, nodes annotated with the
    access attribute, edges with L/C/D labels (D edges dashed, C bold). *)
