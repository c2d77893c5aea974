"""Incremental re-verification of ported modules.

A fork of a verified module is verified by construction, so the
pipeline only re-checks the functions the port actually modified;
naive and Lasagne, which do not track what they touch, verify every
function.
"""

from repro.api import compile_source, port_module
from repro.core.config import PortingLevel

#: One spinloop in ``wait`` plus pure-local helpers the port never has
#: a reason to touch.
SOURCE = """
int flag = 0;
int data = 0;
int pure_math(int x) { return x * x + 1; }
int more_math(int x) { int acc = 0; for (int i = 0; i < x; i++) { acc = acc + i; } return acc; }
void wait() { while (flag == 0) { } }
void producer() { data = pure_math(3); flag = 1; }
int main() {
    thread_create(producer);
    wait();
    return data + more_math(4);
}
"""


def _port(level):
    _ported, report = port_module(compile_source(SOURCE, "incr"), level)
    return report


def test_incremental_port_skips_untouched_functions():
    counters = _port(PortingLevel.ATOMIG).stats.counters
    assert counters.get("verify_skipped_functions", 0) >= 1
    assert counters["verified_functions"] >= 1


def test_original_level_verifies_nothing():
    counters = _port(PortingLevel.ORIGINAL).stats.counters
    assert counters.get("verified_functions", 0) == 0
    assert counters.get("verify_skipped_functions", 0) >= 5


def test_naive_port_always_fully_verifies():
    counters = _port(PortingLevel.NAIVE).stats.counters
    assert counters["verified_functions"] >= 5
    assert "verify_skipped_functions" not in counters
