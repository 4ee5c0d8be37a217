"""One benchmark sample: run the fedbench CLI in this process with its entry
points wrapped, then write the spans and this process's resource usage.

    python3 bench/child.py RESULT.json plain|traced run --config ... --out ...

fedbench is imported from the checkout's ``src/``; an import from anywhere
else is an error. ``plain`` wraps only ``simulation.run_round``, whose start
and end give set-up and round times. ``traced`` wraps the public entry point
of every layer. The result file holds the CLI's exit code, this process's
peak RSS and CPU time, the spans and the per-span work counts.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from spans import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent

RUN_ROUND = Target("fedbench.simulation", "run_round", "simulation.run_round")

TRACED = [
    Target("fedbench.config", "parse_config", "config.parse_config"),
    Target("fedbench.data", "load_dataset", "data.load_dataset"),
    Target("fedbench.partition", "partition", "partition.partition"),
    Target("fedbench.model", "init_model", "model.init_model"),
    Target("fedbench.model", "forward_loss_grad", "model.forward_loss_grad"),
    Target("fedbench.model", "local_step", "model.local_step"),
    # The CLI's call into the simulation layer, one span per run.
    Target("fedbench.simulation", "run_experiment", "cli.run_experiment"),
    RUN_ROUND,
    # train_local(params, spec, features, ...): count the samples trained.
    Target("fedbench.simulation", "train_local", "simulation.train_local",
           count=lambda args: len(args[2])),
    Target("fedbench.simulation", "evaluate_centralized", "simulation.evaluate_centralized"),
    Target("fedbench.strategies", "Strategy.aggregate",
           lambda args: f"strategies.aggregate.{args[0].kind}"),
    Target("fedbench.results", "write_results", "results.write_results"),
    Target("fedbench.results", "write_summary", "results.write_summary"),
]


def main(argv: list[str]) -> int:
    result_path, mode, *cli_args = argv
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fedbench.cli

    where = Path(fedbench.cli.__file__).resolve().parent
    if where != (src / "fedbench").resolve():
        print(f"fedbench was imported from {where}, not from {src}", file=sys.stderr)
        return 3
    tracer = Tracer()
    tracer.install(TRACED if mode == "traced" else [RUN_ROUND])
    code = fedbench.cli.main(cli_args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "exit_code": code,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
