"""The sylk benchmark: see perfbench/README.md."""
