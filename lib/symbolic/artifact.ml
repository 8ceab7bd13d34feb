let clear_all = Probe.clear
