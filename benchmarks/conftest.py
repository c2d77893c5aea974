"""Benchmark-suite fixtures: result artifacts, table printing and
timing-free comparisons."""

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Print a formatted table and persist it under benchmarks/results/."""

    def _record(name, text):
        print()
        print(text)
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return path

    return _record


@pytest.fixture(scope="session")
def untimed():
    """JSON-clean copy of a value without its ``wall_seconds`` keys, at
    any depth: what repeated regenerations must reproduce exactly."""

    def _strip(value):
        if isinstance(value, dict):
            return {key: _strip(item) for key, item in value.items()
                    if key != "wall_seconds"}
        if isinstance(value, list):
            return [_strip(item) for item in value]
        return value

    return lambda value: _strip(json.loads(json.dumps(value)))
