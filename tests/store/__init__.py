"""Tests for on-disk graphs, tasks and partitions (``Graph.save``/``open``, repro.store)."""
