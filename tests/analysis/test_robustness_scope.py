"""The robustness analyzer analyzes only the code that can run.

:class:`RobustnessAnalyzer` builds its race classification (locks,
locksets, ``NonLocalInfo``, spawn epochs) over the live functions:
``main``, every thread entry and everything they call.  Code that never
runs cannot add a critical cycle, so dropping it is sound; the thread
contexts still come from the whole module, so a spawn site in dead code
counts as it does for whole-module :func:`classify_module`.

- On real inputs — every corpus source at the original, AtoMig (with
  repair) and naive levels, and the five Table 3 apps at 1/400 — the
  analyzer's nodes carry exactly the classification and held locks that
  whole-module ``classify_module`` gives the live, concurrent accesses,
  under wmm and tso.
- Three hand-written modules hold dead code that does change a
  whole-module analysis.  Each classification the analyzer gives
  differently is listed with the reason, and the analyzer's robust
  verdicts agree with unreduced (``por="none"``) exploration.
"""

import random

import pytest

from repro.analysis.races import AccessClass, classify_module
from repro.analysis.robustness import RobustnessAnalyzer, analyze_robustness
from repro.api import check_module, compile_source, port_module
from repro.bench.corpus import BENCHMARKS
from repro.bench.synth import PAPER_TABLE3, SyntheticCodebase
from repro.core.config import AtoMigConfig, PortingLevel

SOURCE_FIELDS = ("mc_source", "gate_source", "perf_source", "expert_source")
SYNTH_APPS = ("mariadb", "postgresql", "leveldb", "memcached", "sqlite")
MODELS = ("wmm", "tso")


def _inputs():
    labels = [
        f"{name}.{field}"
        for name, bench in sorted(BENCHMARKS.items())
        for field in SOURCE_FIELDS
        if getattr(bench, field) is not None
    ]
    return labels + [f"synth.{app}" for app in SYNTH_APPS]


def _source(label):
    owner, field = label.split(".")
    if owner == "synth":
        generator = SyntheticCodebase(PAPER_TABLE3[field], scale=400)
        generator.rng = random.Random(f"{field}:0")
        return field, generator.generate()
    return owner, getattr(BENCHMARKS[owner], field)()


def _levels(module):
    """The module at the original, atomig+repair and naive levels."""
    repaired, _ = port_module(module, PortingLevel.ATOMIG,
                              config=AtoMigConfig(repair_mode=True))
    naive, _ = port_module(module, PortingLevel.NAIVE)
    return {"original": module, "atomig+repair": repaired, "naive": naive}


def _whole_module_nodes(module):
    """instr -> (function, class, held structural locks) for the live,
    concurrent accesses of a whole-module classification — what the
    analyzer turned into nodes before it was scoped."""
    report = classify_module(module)
    locksets = report.lockset_result
    structural = locksets.structural_keys()
    nodes = {}
    for finding in report.findings:
        if (finding.classification is AccessClass.UNREACHABLE
                or not finding.concurrent):
            continue
        keys, tainted = locksets.lockset_at(finding.instr)
        held = frozenset() if tainted else frozenset(keys) & structural
        nodes[finding.instr] = (finding.function, finding.classification,
                                held)
    return nodes


def _analyzer_nodes(module, model):
    analyzer = RobustnessAnalyzer(module, model=model)
    return {
        node.instr: (node.function, node.classification, node.locks)
        for node in analyzer._nodes
    }


@pytest.mark.parametrize("label", _inputs())
def test_nodes_match_whole_module_classification(label):
    name, source = _source(label)
    for level, module in _levels(compile_source(source, name)).items():
        whole = _whole_module_nodes(module)
        for model in MODELS:
            assert _analyzer_nodes(module, model) == whole, (level, model)


# -- dead code that changes a whole-module analysis -------------------------

LOCK = """
int lock_word = 0;
int data = 0;
void lock() {
    while (atomic_cmpxchg_explicit(&lock_word, 0, 1, memory_order_acquire) != 0) {
        cpu_relax();
    }
}
void unlock() { atomic_store_explicit(&lock_word, 0, memory_order_release); }
"""

#: bump() runs only under the lock, but bump_unlocked(), which nothing
#: calls, calls it without taking the lock.
DEAD_CALLER = LOCK + """
void bump() { data = data + 1; }
void worker() { lock(); bump(); unlock(); }
void bump_unlocked() { bump(); }
int main() {
    int t = thread_create(worker);
    worker();
    thread_join(t);
    assert(data == 2);
    return data;
}
"""

#: Message passing through flag; only grab_flag(), which nothing calls,
#: uses flag as a test-and-set lock.
DEAD_LOCK_IDIOM = """
int flag = 0;
int data = 0;
void writer() {
    data = 1;
    atomic_store_explicit(&flag, 1, memory_order_release);
}
void grab_flag() {
    while (atomic_cmpxchg_explicit(&flag, 0, 1, memory_order_acquire) != 0) {
        cpu_relax();
    }
}
int main() {
    int t = thread_create(writer);
    while (atomic_load_explicit(&flag, memory_order_acquire) == 0) {
        cpu_relax();
    }
    assert(data == 1);
    thread_join(t);
    return 0;
}
"""

#: Store buffering between main and left(); spawn_left(), which nothing
#: calls, spawns left() a second time.
DEAD_SPAWN = """
int x = 0;
int y = 0;
int r1 = 0;
int r2 = 0;
int visits = 0;
void left() {
    x = 1;
    r1 = y;
    visits = visits + 1;
}
void spawn_left() {
    int t = thread_create(left);
    thread_join(t);
}
int main() {
    int t = thread_create(left);
    y = 1;
    r2 = x;
    thread_join(t);
    assert(r1 == 1 || r2 == 1);
    return 0;
}
"""

#: name -> (source, {"function: instr": (whole-module class, analyzer
#: class)} for every access the two classify differently, robust under
#: wmm and tso).
DEAD_CODE = {
    # The dead caller holds no lock, so over all call sites the
    # must-lockset at bump's entry is empty and data reads as racy.  The
    # one live caller, worker, holds lock_word there, so the analyzer
    # finds data protected, prunes its conflicts under the enforced lock
    # protocol, and proves the module robust (whole-module: not robust
    # under wmm).
    "dead_caller": (DEAD_CALLER, {
        "bump: %1 = load @data": ("racy", "protected"),
        "bump: store %2 -> @data": ("racy", "protected"),
    }, True),
    # A lock idiom that appears only in dead code makes flag a lock
    # word for the whole module.  In the code that runs, flag is a
    # plain message-passing flag: racy.
    "dead_lock_idiom": (DEAD_LOCK_IDIOM, {
        "writer: store atomic(release) 1 -> @flag": ("lock", "racy"),
        "main: %2 = load atomic(acquire) @flag": ("lock", "racy"),
    }, True),
    # Nothing differs: thread contexts stay whole-module, so the dead
    # spawn site still counts and left() stays two thread instances.
    # visits, which only left() touches, therefore stays racy (it
    # would be unshared if the dead spawn were dropped).  The SB cycle
    # is real: both weak models reach the violation.
    "dead_spawn": (DEAD_SPAWN, {}, False),
}


@pytest.mark.parametrize("name", sorted(DEAD_CODE))
def test_dead_code_changes_only_the_listed_classifications(name):
    source, differing, _robust = DEAD_CODE[name]
    module = compile_source(source, name)
    whole = _whole_module_nodes(module)
    for model in MODELS:
        scoped = _analyzer_nodes(module, model)
        assert set(scoped) == set(whole), model
        changed = {
            f"{entry[0]}: {instr!r}": (entry[1].value,
                                       scoped[instr][1].value)
            for instr, entry in whole.items()
            if scoped[instr] != entry
        }
        assert changed == differing, model
    if name == "dead_spawn":
        visits = [entry for instr, entry in scoped.items()
                  if "@visits" in repr(instr)]
        assert visits and all(
            cls is AccessClass.RACY for _fn, cls, _held in visits)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(DEAD_CODE))
def test_dead_code_verdicts_agree_with_unreduced_exploration(name, model):
    source, _differing, robust = DEAD_CODE[name]
    module = compile_source(source, name)
    assert analyze_robustness(module, model=model).robust is robust
    weak = check_module(module, model=model, por="none").outcome
    sc = check_module(module, model="sc", por="none").outcome
    assert sc == "ok"
    # Robust: the weak model adds no behaviour.  Here the one
    # non-robust module's cycle is real.
    assert (weak == sc) is robust
