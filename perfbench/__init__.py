"""Benchmark for the qot library; entry point run.py."""
