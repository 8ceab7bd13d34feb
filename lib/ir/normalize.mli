(** Loop normalization.

    Rewrites every loop to run from 0 with step 1, replacing the index
    [v] by [lo + step*v] in all enclosed expressions, as conventional
    compilers do before LMAD construction (paper, Sec. 2 opening). *)

open Types

val loop : loop -> loop
val phase : phase -> phase
