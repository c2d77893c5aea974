"""Tests for the synthetic codebase generator."""

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.api import compile_source, port_module, run_module
from repro.bench.synth import PAPER_TABLE3, SyntheticCodebase, generate_codebase
from repro.core.config import PortingLevel
from repro.ir.verifier import verify_module


def test_generation_is_deterministic():
    a = generate_codebase("memcached", scale=100, seed=3)
    b = generate_codebase("memcached", scale=100, seed=3)
    assert a == b


def test_generation_ignores_the_string_hash_salt():
    """Two processes with different PYTHONHASHSEED values generate the
    same program."""
    script = (
        "import hashlib\n"
        "from repro.bench.synth import generate_codebase\n"
        "source = generate_codebase('memcached', scale=400)\n"
        "print(hashlib.blake2b(source.encode()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        digests.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        ).stdout)
    source = generate_codebase("memcached", scale=400)
    assert digests == [hashlib.blake2b(source.encode()).hexdigest() + "\n"] * 2


def test_different_seeds_differ():
    a = generate_codebase("memcached", scale=100, seed=1)
    b = generate_codebase("memcached", scale=100, seed=2)
    assert a != b


@pytest.mark.parametrize("app", sorted(PAPER_TABLE3))
def test_generated_codebases_compile(app):
    source = generate_codebase(app, scale=400)
    module = compile_source(source, app)
    assert verify_module(module)


def test_generated_main_runs():
    source = generate_codebase("memcached", scale=200)
    module = compile_source(source, "memcached")
    result = run_module(module)
    assert result.stats.instructions > 0


def test_density_targets_scale():
    generator = SyntheticCodebase(PAPER_TABLE3["mariadb"], scale=100)
    assert generator.n_spinloops == 128
    assert generator.n_optiloops == 19
    assert generator.target_sloc >= 30_000


def test_minimums_enforced_for_tiny_profiles():
    generator = SyntheticCodebase(PAPER_TABLE3["memcached"], scale=1000)
    assert generator.n_spinloops >= 1
    assert generator.n_optiloops >= 1
    # Memcached has 2 explicit barriers; the scaled value keeps >= 1.
    assert generator.n_explicit == 1
    # And 0 implicit ones: zero stays zero.
    assert generator.n_implicit == 0


def test_detection_matches_seeded_patterns():
    source = generate_codebase("leveldb", scale=100)
    module = compile_source(source, "leveldb")
    _ported, report = port_module(module, PortingLevel.ATOMIG)
    profile = PAPER_TABLE3["leveldb"]
    assert report.num_spinloops >= max(profile.spinloops // 100, 1)
    assert report.num_optimistic_loops >= max(profile.optiloops // 100, 1)


def test_paper_profile_data_integrity():
    for name, profile in PAPER_TABLE3.items():
        assert profile.sloc > 0
        assert profile.atomig_seconds > profile.build_seconds
        assert profile.naive_implicit > profile.atomig_implicit
        assert profile.atomig_explicit >= profile.orig_explicit
