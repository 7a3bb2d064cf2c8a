let () = Analysis.main ()
