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
  anchor : (int * int) option;
      (** [(tau, delta_P)] of the representative, where the plan
          anchors a layout of the node's chain ({!Balance.frame}) *)
  storage : Balance.storage list;
      (** the storage distances beyond one iteration's reach: the
          model's storage rows and the plan's period and mirror
          candidates ({!Balance.frame}) *)
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

type facts = {
  env : Env.t;
  ards : Ard.phase Lazy.t list;
      (** the program's contexts and descriptors ({!Ard.of_program}):
          environment-free, so one list may serve several [facts] *)
  shapes : Ir.Shape.t option Lazy.t array;
      (** each phase's {!Ir.Shape.of_phase} at [env], by phase index,
          derived on first use from its entry of [ards]; [None] also
          for a phase that does not analyze *)
}
(** What one run derives once per phase and every stage reads: lint's
    bounds and race rules, the LCG (liveness, phase work, nodes), the
    plan's tallies and the communication schedule. *)

val facts : Ard.phase Lazy.t list -> Env.t -> facts
(** The facts of a run at [env]; nothing is derived until read. *)

type t = {
  prog : Ir.Types.program;
  env : Env.t;
  h : int;
  graphs : graph list;
  sizes : (string * (int, Ir.Linearize.size_failure) result) list;
      (** every declared array's linearized size at [env], in
          declaration order, evaluated once here; read through {!size}
          by the solve, the plan, the simulator, the communication
          schedule, the executor and the fuzz battery.  Each reader
          keeps its own answer to a size that does not evaluate:
          [Dsmsim.Comm] reports it and omits the array's events, the
          executor refuses the program, the plan uses a block of 1, and
          the solve, which prices a non-rectangular node as the whole
          array, prices it at 0 words. *)
  shapes : Ir.Shape.t option Lazy.t array;
      (** the run's {!facts.shapes}, read through {!shape} *)
}

val build : ?facts:facts -> Ir.Types.program -> env:Env.t -> h:int -> t
(** Runs the whole front half of the paper: descriptors, simplification,
    IDs, symmetry, attributes, intra- and inter-phase analysis.  Each
    node's PD is assembled from [facts.ards], and liveness and phase
    work read [facts.shapes] ({!facts} of the program at [env], built
    here when not given).
    @raise Invalid_argument when [facts] are not at [env]. *)

val empty : Ir.Types.program -> facts -> h:int -> t
(** No graphs, but the sizes and shapes at [facts.env]: the LCG-FAIL
    fallback. *)

val size : t -> string -> int option
(** The array's size fact; [None] when it does not evaluate.
    @raise Not_found on an undeclared array. *)

val shape : t -> int -> Ir.Shape.t option
(** Phase [k]'s shape at [env] ({!facts.shapes}), derived on the first
    read by any stage. *)

val chains : graph -> int list list
(** Node positions grouped into chains: D and C edges both break the
    sequence; the distinction (redistribution vs nothing) lives on the
    edges themselves. *)

val node_of_phase : graph -> phase_idx:int -> node option

val pp : Format.formatter -> t -> unit

val region_bounds : t -> node -> par:int -> (int * int) option
(** Concrete [lo, hi] of the node's ID region at one parallel
    iteration; [None] when it is empty or the descriptor is not
    rectangular.  [halo] is read off the same bounds. *)

val footprint : t -> node list -> int option
(** Distinct addresses in the union of the nodes' whole-phase regions
    at [env]: closed form over [Setalg], enumerated twin over [Region],
    one fallback stage ("footprint").  [None] when some node's region
    is not rectangular.  The solve reads a C edge's words off the
    destination node ([None]: the whole array), the chain report each
    member's size and the union of its rectangular members ([None]: 0).
    The only caller of [Setalg] and [Region] outside the descriptor
    layer is this module. *)

val to_dot : t -> string
(** Graphviz rendering: one cluster per array, nodes annotated with the
    access attribute, edges with L/C/D labels (D edges dashed, C bold). *)
