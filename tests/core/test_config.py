"""Tests for AtoMigConfig and PortingLevel."""

from repro.core.config import AtoMigConfig, PortingLevel


def test_levels_cover_the_papers_variants():
    values = {level.value for level in PortingLevel}
    assert values == {
        "original", "expl", "spin", "atomig", "naive", "lasagne",
    }


def test_default_config_is_the_paper_configuration():
    config = AtoMigConfig()
    assert config.detect_spinloops
    assert config.detect_optimistic
    assert config.alias_exploration
    assert config.inline_before_analysis
    assert not config.strict_spinloop_definition
    assert not config.force_explicit_barriers
    # §6 extensions are off by default (not part of the evaluation).
    assert not config.detect_polling_loops
    assert not config.compiler_barrier_seeds


def test_for_level_expl_disables_pattern_detection():
    config = AtoMigConfig.for_level(PortingLevel.EXPL)
    assert not config.detect_spinloops
    assert not config.detect_optimistic
    assert config.alias_exploration  # atomics still seed buddies


def test_for_level_spin_disables_only_optimistic():
    config = AtoMigConfig.for_level(PortingLevel.SPIN)
    assert config.detect_spinloops
    assert not config.detect_optimistic


def test_for_level_atomig_is_default():
    assert AtoMigConfig.for_level(PortingLevel.ATOMIG) == AtoMigConfig()


def test_for_level_applies_ablations_on_top_of_a_given_config():
    config = AtoMigConfig(prune_protected=True, alias_mode="points_to")
    expl = AtoMigConfig.for_level(PortingLevel.EXPL, config)
    spin = AtoMigConfig.for_level(PortingLevel.SPIN, config)
    assert not expl.detect_spinloops and not expl.detect_optimistic
    assert spin.detect_spinloops and not spin.detect_optimistic
    for derived in (expl, spin):
        assert derived.prune_protected
        assert derived.alias_mode == "points_to"
    assert AtoMigConfig.for_level(PortingLevel.ATOMIG, config) is config
    # The given config is never mutated.
    assert config.detect_spinloops and config.detect_optimistic
