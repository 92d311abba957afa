"""Argument parsing shared by the ``python -m repro`` subcommands."""

from __future__ import annotations

import argparse
from contextlib import contextmanager

__all__ = ["number_at_least", "scale_usage_errors"]


def number_at_least(kind, low, *, strict: bool = False):
    """argparse ``type=`` for a number ``>= low`` (``> low`` if ``strict``).

    A value out of range (NaN included) is an argparse usage error —
    exit status 2 with the flag named — instead of a traceback from
    deep inside the run.
    """

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


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
