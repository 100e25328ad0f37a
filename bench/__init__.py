"""Standing benchmark for the Neptune HAM server (see bench/README.md)."""
