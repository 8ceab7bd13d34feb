open Symbolic
open Ir
open Build

let params =
  Assume.of_list
    [
      ("p", Assume.Int_range (2, 6));
      ("q", Assume.Int_range (1, 5));
      ("P", Assume.Pow2_of "p");
      ("Q", Assume.Pow2_of "q");
    ]

let pP = var "P"
let qQ = var "Q"
let pq = pP * qQ
let n2pq = int 2 * pq

(* F3 is the paper's Figure 1, verbatim: the CFFTZ butterfly sweep with
   non-affine subscripts and bounds. *)
let phase_f3 =
  let phi1 =
    (int 2 * pP * var "I") + (pow2 (var "L" - int 1) * var "J") + var "K"
  in
  phase "F3"
    (doall "I" ~lo:(int 0) ~hi:(qQ - int 1)
       [
         do_ "L" ~lo:(int 1) ~hi:(var "p")
           [
             do_ "J" ~lo:(int 0) ~hi:((pP * pow2 (int 0 - var "L")) - int 1)
               [
                 do_ "K" ~lo:(int 0) ~hi:(pow2 (var "L" - int 1) - int 1)
                   [
                     assign ~work:8
                       [
                         read "X" [ phi1 ];
                         read "X" [ phi1 + (pP / int 2) ];
                         write "X" [ phi1 ];
                       ];
                   ];
               ];
           ];
       ])

(* F3 with the Y workspace: per parallel iteration I the region
   [2P*I .. 2P*I + 2P - 1] of Y is written and then read back -
   privatizable (F4 overwrites all of Y before the next read). *)
let phase_f3_full =
  let phi1 =
    (int 2 * pP * var "I") + (pow2 (var "L" - int 1) * var "J") + var "K"
  in
  phase "F3"
    (doall "I" ~lo:(int 0) ~hi:(qQ - int 1)
       [
         do_ "S" ~lo:(int 0) ~hi:((int 2 * pP) - int 1)
           [ assign ~work:2 [ write "Y" [ (int 2 * pP * var "I") + var "S" ] ] ];
         do_ "L" ~lo:(int 1) ~hi:(var "p")
           [
             do_ "J" ~lo:(int 0) ~hi:((pP * pow2 (int 0 - var "L")) - int 1)
               [
                 do_ "K" ~lo:(int 0) ~hi:(pow2 (var "L" - int 1) - int 1)
                   [
                     assign ~work:8
                       [
                         read "Y" [ (int 2 * pP * var "I") + var "K" ];
                         read "X" [ phi1 ];
                         read "X" [ phi1 + (pP / int 2) ];
                         write "X" [ phi1 ];
                       ];
                   ];
               ];
           ];
       ])

(* F1: real-to-complex unpacking sweep. X read in adjacent pairs, Y
   written together with its shifted copy at distance PQ. *)
let phase_f1 =
  phase "F1"
    (doall "M" ~lo:(int 0) ~hi:(pq - int 1)
       [
         assign ~work:4
           [
             read "X" [ int 2 * var "M" ];
             read "X" [ (int 2 * var "M") + int 1 ];
             write "Y" [ var "M" ];
             write "Y" [ var "M" + pq ];
           ];
       ])

(* F2: TRANSA - iteration J writes column J of X viewed as a P x 2Q
   matrix (interleaved columns: Eq. 4's p2 + 2QP - P), reading the
   Q-block of Y (with its +PQ copy) that feeds it. *)
let phase_f2 =
  phase "F2"
    (doall "J" ~lo:(int 0) ~hi:(pP - int 1)
       [
         do_ "I" ~lo:(int 0) ~hi:(qQ - int 1)
           [
             assign ~work:4
               [
                 read "Y" [ (qQ * var "J") + var "I" ];
                 read "Y" [ (qQ * var "J") + var "I" + pq ];
                 write "X" [ var "J" + (int 2 * pP * var "I") ];
                 write "X" [ var "J" + (int 2 * pP * var "I") + pP ];
               ];
           ];
       ])

(* F4: TRANSC - reads back the [2Pi .. 2Pi+P-1] block F3 produced
   (p31 = p41, Fig. 9) and overwrites Y transposed (the access pattern
   mismatch that makes the Y edge into F5 a C edge). *)
let phase_f4 =
  phase "F4"
    (doall "I" ~lo:(int 0) ~hi:(qQ - int 1)
       [
         do_ "J" ~lo:(int 0) ~hi:(pP - int 1)
           [ assign ~work:2 [ read "X" [ (int 2 * pP * var "I") + var "J" ] ] ];
         do_ "J2" ~lo:(int 0) ~hi:((int 2 * pP) - int 1)
           [ assign ~work:2 [ write "Y" [ var "I" + (qQ * var "J2") ] ] ];
       ])

(* F5: CMULTF - twiddle multiply: iteration J owns the 2Q-block of both
   arrays (P p41 = Q p51 against F4). *)
let phase_f5 =
  phase "F5"
    (doall "J" ~lo:(int 0) ~hi:(pP - int 1)
       [
         do_ "I" ~lo:(int 0) ~hi:((int 2 * qQ) - int 1)
           [
             assign ~work:6
               [
                 read "Y" [ (int 2 * qQ * var "J") + var "I" ];
                 write "X" [ (int 2 * qQ * var "J") + var "I" ];
               ];
           ];
       ])

(* F6: second CFFTZWORK - the FFT transforms X in place through the Y
   workspace, whose values F8 then consumes (2Q p62 = p82); X is
   updated in the same 2Q-blocks (p51 = p61). *)
let phase_f6 =
  phase "F6"
    (doall "J" ~lo:(int 0) ~hi:(pP - int 1)
       [
         do_ "I" ~lo:(int 0) ~hi:((int 2 * qQ) - int 1)
           [
             assign ~work:2
               [
                 read "X" [ (int 2 * qQ * var "J") + var "I" ];
                 write "Y" [ (int 2 * qQ * var "J") + var "I" ];
               ];
           ];
         do_ "I2" ~lo:(int 0) ~hi:((int 2 * qQ) - int 1)
           [
             assign ~work:8
               [
                 read "Y" [ (int 2 * qQ * var "J") + var "I2" ];
                 write "X" [ (int 2 * qQ * var "J") + var "I2" ];
               ];
           ];
       ])

(* F7: TRANSB - consumes X in the same 2Q-blocks (p61 = p71). *)
let phase_f7 =
  phase "F7"
    (doall "J" ~lo:(int 0) ~hi:(pP - int 1)
       [
         do_ "I" ~lo:(int 0) ~hi:((int 2 * qQ) - int 1)
           [ assign ~work:2 [ read "X" [ (int 2 * qQ * var "J") + var "I" ] ] ];
       ])

(* F8: the conjugate-symmetric unpacking sweep over the half range
   [0 .. PQ/2): both arrays touched at [m], [m+PQ] (shifted storage,
   Delta_d = PQ) and at the reversed [PQ-1-m], [2PQ-1-m] (reverse
   storage, Delta_r = PQ and 2PQ); each address is written exactly
   once, and 2Q p71 = p81. *)
let phase_f8 =
  let m = var "M" in
  phase "F8"
    (doall "M" ~lo:(int 0) ~hi:((pq / int 2) - int 1)
       [
         assign ~work:16
           [
             read "Y" [ m ];
             read "Y" [ m + pq ];
             read "Y" [ pq - int 1 - m ];
             read "Y" [ n2pq - int 1 - m ];
             write "X" [ m ];
             write "X" [ m + pq ];
             write "X" [ pq - int 1 - m ];
             write "X" [ n2pq - int 1 - m ];
           ];
       ])

let fig1_program =
  program ~name:"tfft2-fig1" ~params
    ~arrays:[ array "X" [ n2pq ] ]
    [ phase_f3 ]

let program =
  program ~name:"tfft2" ~params
    ~arrays:[ array "X" [ n2pq ]; array "Y" [ n2pq ] ]
    [
      phase_f1; phase_f2; phase_f3_full; phase_f4; phase_f5; phase_f6;
      phase_f7; phase_f8;
    ]

let env ~p ~q =
  Env.of_list [ ("p", p); ("q", q); ("P", 1 lsl p); ("Q", 1 lsl q) ]
