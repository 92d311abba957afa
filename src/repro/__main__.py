"""Command-line entry: ``python -m repro <command>``.

The whole command line is one argparse tree. Each command module adds
its own flags (``add_arguments(parser)``, using the shared flags of
:mod:`repro.utils.cli`) and runs from the parsed namespace
(``run(args) -> int``).
"""

from __future__ import annotations

import argparse

from repro import __version__
from repro.datasets import PAPER_SCHEMAS, dataset_names, load_dataset
from repro.experiments import ablations, epochs, samples, table3
from repro.experiments.report import render_table
from repro.obs import profile
from repro.serve import replay
from repro.stream import cli as stream
from repro.utils.cli import scale_usage_errors


def print_datasets(args) -> int:
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


def print_version(args) -> int:
    print(__version__)
    return 0


#: command -> (description, add_arguments or None, run)
COMMANDS = {
    "table3": ("Regenerate paper Table III", table3.add_arguments, table3.run),
    "epochs": ("Regenerate paper Figs 3-6", epochs.add_arguments, epochs.run),
    # The two sweeps take the same flags.
    "samples": ("Regenerate paper Figs 7-9", epochs.add_arguments, samples.run),
    "ablations": ("Run one ablation study", ablations.add_arguments, ablations.run),
    "datasets": ("Print the Table II schema/stat summary.", None, print_datasets),
    "profile": (
        "Profile a small end-to-end SEAL workload and emit a phase-time breakdown as JSON.",
        profile.add_arguments,
        profile.run,
    ),
    "serve": (
        "Replay a scripted concurrent workload through the micro-batching "
        "scoring server and report latency/throughput against a single-shot baseline.",
        replay.add_arguments,
        replay.run,
    ),
    "stream": (
        "prequential streaming evaluation over a bundled dataset",
        stream.add_arguments,
        stream.run,
    ),
    "version": ("Print the package version.", None, print_version),
}


def main() -> int:
    """Run the command ``sys.argv`` names; return its exit status."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AM-DGCNN reproduction: the paper's experiments and workloads."
    )
    commands = parser.add_subparsers(dest="command", metavar="<command>", title="commands")
    for name, (description, add_arguments, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=description, description=description)
        if add_arguments is not None:
            add_arguments(sub)
    try:
        args = parser.parse_args()
    except SystemExit as exc:
        if exc.code:  # a usage error
            raise
        return 0  # --help
    command = args.command
    if command is None:
        parser.print_help()
        return 0
    del args.command  # the namespace holds the command's own flags only
    sub = commands.choices[command]
    try:
        with scale_usage_errors(sub):
            return COMMANDS[command][2](args)
    except argparse.ArgumentError as exc:  # a flag combination checked at run time
        sub.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
