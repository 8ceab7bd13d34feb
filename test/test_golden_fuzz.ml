(* Golden digests for generated programs: the MD5 of the full
   [Core.Pipeline.report] (diagnostics included) and the hex-rendered
   LCG-plan efficiency of [Core.Pipeline.simulate], for the first twelve
   programs of the deep campaign 2026 at H=16 (the deep-pipelines
   benchmark inputs) and for forty programs of the default profile at
   H=4.  Every program runs cold on the default probe stream, as one
   [dsmloc] invocation does, so a change to how probes are answered
   that flips a single decision on a 50-100-phase pipeline shows here.

   Regenerate after an intentional analysis change with

     GOLDEN_UPDATE=1 dune exec test/test_golden_fuzz.exe

   and paste the emitted rows over the [golden] table below. *)

let deep = List.init 12 (fun i -> (Printf.sprintf "deep#%d" i, Fuzz.Gen.deep, i, 16))

let default =
  List.init 40 (fun i -> (Printf.sprintf "default#%d" i, Fuzz.Gen.default, i, 4))

let cases = deep @ default

let fingerprint (profile, index, h) =
  let prog = Fuzz.Gen.program profile ~seed:2026 ~index in
  Symbolic.Artifact.clear_all ();
  let t = Core.Pipeline.run prog ~env:(Fuzz.Gen.midpoint_env prog) ~h in
  let report = Format.asprintf "%a@." Core.Pipeline.report t in
  let run = Core.Pipeline.simulate t in
  ( Digest.to_hex (Digest.string report),
    Printf.sprintf "%h" run.Dsmsim.Exec.efficiency )

let golden : (string * (string * string)) list =
  [
    ("deep#0", ("40fddab210262da4b733d5f19ff23d0b", "0x1.0dcf1fa117e25p-9"));
    ("deep#1", ("600993e6fdbce61db8ef87fa8e960b2c", "0x1.df5ae33e55e23p-9"));
    ("deep#2", ("43cba99ef307f2cd1c9c51780725e115", "0x1.4fc3345c43ecp-9"));
    ("deep#3", ("cbed110f9bbbc42b125457f69069e86b", "0x1.d5f7c7cf81fc7p-8"));
    ("deep#4", ("c1dd6683200530ab5b53e4f3852d3ffc", "0x1.ae177823df665p-8"));
    ("deep#5", ("0f638df07100ee33f03ed33b001b01f2", "0x1.be1e3a815f1fdp-9"));
    ("deep#6", ("b84bc6c5e5d77f4ff006ae93f09cadf9", "0x1.1fb7398f8ee36p-9"));
    ("deep#7", ("6ac67c146dbd348324c5b3ed6d23b018", "0x1.c10362ddcdff2p-8"));
    ("deep#8", ("7f243e4bde32ddd53f8774c44c4f030c", "0x1.dee769ebd48ap-9"));
    ("deep#9", ("513d3e09875bca3e52bfc26e764da863", "0x1.5f90c06b20c84p-9"));
    ("deep#10", ("ece948f4d9fe2cd94c5efb4b45270223", "0x1.3de3840ebefbdp-8"));
    ("deep#11", ("f32cd69fdef8ca25a05e9c3c35ba9d8d", "0x1.843295ff451d9p-9"));
    ("default#0", ("73846672619af88878ae2e4e432079ea", "0x1.d4a1176009032p-6"));
    ("default#1", ("77d84c2b9dd8caabc132e87947fe8c00", "0x1.c00ae2e9b789ap-4"));
    ("default#2", ("584d49aae6086ca38f06573907876861", "0x1.e201dba31a24ep-7"));
    ("default#3", ("595344c56b4eb82277fa5c9d1cf9e910", "0x1.041041041041p-4"));
    ("default#4", ("48641328f3b9ce357f956230d4135b86", "0x1.106011778a192p-4"));
    ("default#5", ("a1ebcea783a0743385af10e9f5e5a2df", "0x1.52a2e7944087cp-5"));
    ("default#6", ("706dfa99f94e2b77e466336846c0d3c9", "0x1.1dd2c3c0c0267p-6"));
    ("default#7", ("499422e5811bed8c61077de2cac6c36c", "0x1.d49c34115b1e6p-7"));
    ("default#8", ("5ba2737d0ae71f600eb2eb091e3d3395", "0x1.1077f9d540673p-7"));
    ("default#9", ("a313be44f93d428a9a6e4a95bc4a9e15", "0x1.66d66d66d66d6p-5"));
    ("default#10", ("6953584f2de2cc43e8f7573f5011cc19", "0x1.c38c076704517p-5"));
    ("default#11", ("39eb68dffd1373629dc832bf3239921a", "0x1.dd2a5a262cfb5p-7"));
    ("default#12", ("24fbba658c1ee316a9a9ed56d2f25eb5", "0x1.cc1e963a06f3ap-7"));
    ("default#13", ("2f66ea403f0cea56b5509ad860bdd541", "0x1.55a2a9755a2a9p-4"));
    ("default#14", ("7172121f3ce957315efe2f0cbd96a89c", "0x1.914b0541ae83p-6"));
    ("default#15", ("4b20e0b182ef5a9896bc47e433316742", "0x1.8p-1"));
    ("default#16", ("64af8859e99306137f6ccdd9e277b8e0", "0x1p+0"));
    ("default#17", ("3d13ee101a99eef70530d8a2b0d22990", "0x1.010632fec299ep-4"));
    ("default#18", ("684b6d5ad17bcd3abf46194d3cde3b06", "0x1.4b91f77642aa2p-7"));
    ("default#19", ("a31c4a1b611a8403d9de2e2530306b6b", "0x1.aefd579fec2d5p-5"));
    ("default#20", ("7979c1de8c26e6d5023e039b97f7319c", "0x1.4bd619fa225b5p-4"));
    ("default#21", ("bceb6d3eb4bae4b2186468f398275426", "0x1.91ca915d0f20ap-5"));
    ("default#22", ("364651eef36a82297383fa1305a6c9c9", "0x1.7efc9f68b2527p-5"));
    ("default#23", ("95936016416e8d03a3e989a146482939", "0x1.aa84c60ce0b1ap-4"));
    ("default#24", ("2e52a55867c1984a53295907e11526b6", "0x1.0c10b267ba02ap-5"));
    ("default#25", ("059f3f81eaf4eaa308771c30230c53ac", "0x1.4924924924925p-2"));
    ("default#26", ("aa442ff7f3f5e12f44d72938aeb21213", "0x1.f748930b2e0bcp-7"));
    ("default#27", ("844b515d72af9223585f464def7b3b2e", "0x1.3dd4e1e82ea1bp-5"));
    ("default#28", ("30a5849136a847b9d21f5bc0d62ae9ea", "0x1.c70e406dc5afp-6"));
    ("default#29", ("8e965c4aeb65625eef175174e6e6468b", "0x1.27047e6b92ecdp-7"));
    ("default#30", ("cdb0cc033e9311301cc653a27af6ddda", "0x1.f417d05f417dp-3"));
    ("default#31", ("adea8bfa6e62caae1b7e9e7c9191baa0", "0x1.0d0456c797dd5p-4"));
    ("default#32", ("5c59fb201c4fc29d26822b376484129a", "0x1.71e8cab74c04cp-4"));
    ("default#33", ("9a5b13afb457540dc2d5bede05058b68", "0x1.eaed6af597674p-5"));
    ("default#34", ("6aaa494a17f6f5434c400b83dc611e96", "0x1.952a54a952a55p-4"));
    ("default#35", ("fc76dbbe148a2c4631867394d980cce8", "0x1.f0ba21420423bp-5"));
    ("default#36", ("193173eb502a9c12348cdb8c337eef69", "0x1.c24a8a14c5f5p-3"));
    ("default#37", ("cd8ad8625311ea1c2805b49329a2b68d", "0x1.47ae147ae147bp-1"));
    ("default#38", ("a9833fdcf407aa45c92eab5003693d4b", "0x1.ffe57e7909795p-6"));
    ("default#39", ("1253872ed8e5bf15140de306d06a7387", "0x1.190a080e88a63p-3"));
  ]

let update_mode = Sys.getenv_opt "GOLDEN_UPDATE" = Some "1"

let emit_update () =
  List.iter
    (fun (name, profile, index, h) ->
      let digest, eff = fingerprint (profile, index, h) in
      Printf.printf "    (%S, (%S, %S));\n%!" name digest eff)
    cases

let test_case (name, profile, index, h) =
  Alcotest.test_case name `Quick (fun () ->
      let expected =
        match List.assoc_opt name golden with
        | Some g -> g
        | None -> Alcotest.failf "no golden digest for %s" name
      in
      let digest, eff = fingerprint (profile, index, h) in
      Alcotest.(check string) (name ^ " report digest") (fst expected) digest;
      Alcotest.(check string) (name ^ " simulated efficiency") (snd expected) eff)

let () =
  if update_mode then emit_update ()
  else
    Alcotest.run "golden-fuzz"
      [ ("deep", List.map test_case deep); ("default", List.map test_case default) ]
