"""Benchmark of the subarchmap pipeline; see NOTES.md."""
