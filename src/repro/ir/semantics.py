"""Integer semantics of the IR's operators: one table for every executor.

The performance VM (:mod:`repro.vm.interp`) and the model checker
(:mod:`repro.mc.machine`) both evaluate ``BinOp`` and ``AtomicRMW``
through these tables, so the two cannot disagree on a value.  Each
executor maps a missing operator and :class:`ZeroDivisionError` to its
own error type; the exception's message is the one to report.
"""

import operator


def _divide(left, right):
    """C division: truncates toward zero."""
    if right == 0:
        raise ZeroDivisionError("division by zero")
    quotient = abs(left) // abs(right)
    return -quotient if (left < 0) != (right < 0) else quotient


def _modulo(left, right):
    """C remainder: takes the sign of the dividend."""
    if right == 0:
        raise ZeroDivisionError("modulo by zero")
    quotient = abs(left) // abs(right)
    quotient = -quotient if (left < 0) != (right < 0) else quotient
    return left - right * quotient


#: ``BinOp.op`` -> function of (left, right).  Comparisons yield the
#: ints 1/0, never bools: a bool would encode differently from the
#: equal int in the checker's state digest.
BINOP_FUNCTIONS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": lambda left, right: left << (right & 63),
    ">>": lambda left, right: left >> (right & 63),
    "==": lambda left, right: 1 if left == right else 0,
    "!=": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
}

#: ``AtomicRMW.op`` -> function of (old value, operand) giving the
#: value stored.
RMW_FUNCTIONS = {
    "add": operator.add,
    "sub": operator.sub,
    "or": operator.or_,
    "and": operator.and_,
    "xor": operator.xor,
    "xchg": lambda old, operand: operand,
}
