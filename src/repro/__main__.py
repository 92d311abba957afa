"""Command-line entry: ``python -m repro <command>``.

Commands
--------
``table3``   — regenerate paper Table III
``epochs``   — regenerate a Figs 3–6 panel (``--dataset`` required)
``samples``  — regenerate a Figs 7–9 panel (``--dataset`` required)
``datasets`` — print Table II schema/stat summary
``profile``  — run an instrumented end-to-end workload, emit phase times
``serve``    — replay a concurrent workload through the scoring server
``stream``   — prequential evaluation over a temporal event stream
``version``  — print the package version
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "version":
        from repro import __version__

        argparse.ArgumentParser(
            prog="repro version", description="Print the package version."
        ).parse_args(rest)

        print(__version__)
        return 0
    if command == "table3":
        from repro.experiments.table3 import main as run

        return run(rest)
    if command == "epochs":
        from repro.experiments.epochs import main as run

        return run(rest)
    if command == "samples":
        from repro.experiments.samples import main as run

        return run(rest)
    if command == "profile":
        from repro.obs.profile import main as run_profile_cli

        return run_profile_cli(rest)
    if command == "serve":
        from repro.serve.replay import main as run_serve_cli

        return run_serve_cli(rest)
    if command == "stream":
        from repro.stream.cli import main as run_stream_cli

        return run_stream_cli(rest)
    if command == "datasets":
        from repro.datasets import PAPER_SCHEMAS, dataset_names, load_dataset
        from repro.experiments.report import render_table

        argparse.ArgumentParser(
            prog="repro datasets", description="Print the Table II schema/stat summary."
        ).parse_args(rest)

        rows = []
        for name in dataset_names():
            task = load_dataset(name, scale=0.25, rng=0, num_targets=100)
            schema = PAPER_SCHEMAS[name]
            rows.append(
                [
                    schema.name,
                    f"{schema.paper_node_types}/{task.graph.num_node_types}",
                    f"{schema.paper_edge_types}/{task.graph.num_edge_types}",
                    f"{schema.paper_nodes}/{task.graph.num_nodes}",
                    schema.task,
                ]
            )
        print(render_table(["Dataset", "#NodeT", "#EdgeT", "#Nodes", "Task"], rows))
        return 0
    print(f"unknown command {command!r}; try --help", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
