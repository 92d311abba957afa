"""The flags the ``python -m repro`` commands share, and their report writer.

Each shared flag is defined here once; a command passes its own
default. A flag's ``dest`` is the keyword it feeds (``--targets`` feeds
``num_targets``), so a command can hand ``vars(args)`` to its library
function.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from contextlib import contextmanager

__all__ = [
    "number_at_least",
    "directory",
    "scale_usage_errors",
    "add_dataset",
    "add_scale",
    "add_targets",
    "add_seed",
    "add_json",
    "write_report",
]


def number_at_least(kind, low, *, strict: bool = False):
    """argparse ``type=`` for a number ``>= low`` (``> low`` if ``strict``).

    A value out of range or not finite (NaN, ±inf) is an argparse usage
    error — exit status 2 with the flag named — instead of a traceback
    from deep inside the run.
    """

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def directory(text: str) -> str:
    """argparse ``type=`` for a directory that may not exist yet.

    A path naming an existing file is a usage error (exit status 2, the
    flag named) instead of a ``NotADirectoryError`` mid-run.
    """
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"not a directory: {text}")
    return text


@contextmanager
def scale_usage_errors(parser: argparse.ArgumentParser):
    """Report a dataset too small for its target count as a ``--scale`` usage error.

    Inside the block, a :class:`~repro.datasets.synthetic.ScaleTooSmallError`
    becomes ``parser.error`` (exit status 2, the flag named) instead of a
    traceback.
    """
    from repro.datasets.synthetic import ScaleTooSmallError

    try:
        yield
    except ScaleTooSmallError as exc:
        parser.error(f"argument --scale: {exc}")


def add_dataset(parser: argparse.ArgumentParser, default: str = None) -> None:
    """``--dataset``: one of the bundled datasets; required without a ``default``."""
    from repro.datasets import dataset_names

    parser.add_argument(
        "--dataset",
        default=default,
        required=default is None,
        choices=dataset_names(),
        help="dataset loader name",
    )


def add_scale(parser: argparse.ArgumentParser, default: float) -> None:
    parser.add_argument(
        "--scale",
        type=number_at_least(float, 0.0, strict=True),
        default=default,
        help="dataset size multiplier",
    )


def add_targets(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument(
        "--targets",
        dest="num_targets",
        metavar="TARGETS",
        type=number_at_least(int, 1),
        default=default,
        help="number of labeled links",
    )


def add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH", help="also write the report to PATH")


def write_report(report: dict, path: str) -> None:
    """Print ``report`` as JSON, and also write it to ``path`` when given."""
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
