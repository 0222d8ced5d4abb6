"""End-to-end benchmark for the motivic-kit verifier.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; ``--workload all`` runs every
workload, each in its own process.  The modules are:

- ``workloads``: seeded task lists and the input files they read, written
  with the benchmark's own code (no library classes);
- ``oracles``: independent checks of each command's output;
- ``tracing``: the wrappers, spans and counters of the traced run;
- ``run``: the timed loop, the metrics and the command line.
"""
