"""Pinned digests: the frontend and the porting path never drift silently.

``port_digests.json`` holds, for every source of every corpus benchmark
(its mc/gate/perf/expert source functions at their default arguments)
and for the five Table 3 synthetic apps at 1/400, blake2b digests of

- the printed IR of the compiled module,
- the printed IR after ``port_module`` at the AtoMig level with static
  fence repair, and
- that port's repair report dict, less its wall-clock time.

A change to the lexer, parser, lockset analysis or anything else on the
porting path that alters a token, an AST node, a lockset fact or a
repair decision moves a digest.  The same inputs also pin that every
port's printed IR parses back to itself.  A deliberate output change
must regenerate the file::

    PYTHONPATH=src python tests/integration/test_port_digests.py --write
"""

import functools
import hashlib
import json
import os
import random
import sys

import pytest

from repro.api import compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.bench.synth import PAPER_TABLE3, SyntheticCodebase
from repro.core.config import AtoMigConfig, PortingLevel
from repro.ir.parser import parse_module
from repro.ir.printer import print_module

PATH = os.path.join(os.path.dirname(__file__), "port_digests.json")
SOURCE_FIELDS = ("mc_source", "gate_source", "perf_source", "expert_source")
SYNTH_SCALE = 400
SYNTH_APPS = ("mariadb", "postgresql", "leveldb", "memcached", "sqlite")


def _digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def sources():
    """{label: Mini-C source} of every pinned input."""
    found = {}
    for name, bench in sorted(BENCHMARKS.items()):
        for field in SOURCE_FIELDS:
            make_source = getattr(bench, field)
            if make_source is not None:
                found[f"{name}.{field}"] = make_source()
    for app in SYNTH_APPS:
        generator = SyntheticCodebase(PAPER_TABLE3[app], scale=SYNTH_SCALE)
        generator.rng = random.Random(f"{app}:0")
        found[f"synth.{app}"] = generator.generate()
    return found


@functools.lru_cache(maxsize=None)
def _printed(label):
    """Printed IR of one input, compiled and ported, plus the port's
    repair report dict less its wall-clock time."""
    module = compile_source(SOURCES[label], label, cache=False)
    ported, report = port_module(module, PortingLevel.ATOMIG,
                                 config=AtoMigConfig(repair_mode=True))
    repair = {key: value for key, value in report.repair.items()
              if key != "wall_seconds"}
    return print_module(module), print_module(ported), repair


def digests(label):
    """The three digests pinned for one input."""
    compiled, ported, repair = _printed(label)
    return {
        "compiled": _digest(compiled),
        "ported": _digest(ported),
        "repair": _digest(json.dumps(repair, sort_keys=True, default=str)),
    }


def _pinned():
    with open(PATH) as handle:
        return json.load(handle)


SOURCES = sources()


def test_pinned_inputs_cover_the_corpus():
    """Every input is pinned, and no stale one."""
    assert set(_pinned()) == set(SOURCES)


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_port_digests_unchanged(label):
    assert digests(label) == _pinned()[label], label


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_printed_port_parses_back(label):
    """print → parse → print is the identity on every port, including
    callers that inline one callee twice (each copy's blocks need their
    own labels)."""
    _compiled, ported, _repair = _printed(label)
    assert print_module(parse_module(ported)) == ported, label


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {label: digests(label) for label in sorted(SOURCES)}
    with open(PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
