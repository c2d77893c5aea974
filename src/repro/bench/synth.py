"""Synthetic large-codebase generator for the scalability study (Table 3).

The paper runs AtoMig on MariaDB (3.1 MSLOC) down to Memcached (29
KSLOC).  We cannot ship those code bases, so this generator emits Mini-C
applications that are *density-matched*: for each application profile it
reproduces the paper's per-SLOC rates of spinloops, optimistic loops and
pre-existing explicit/implicit barriers, scaled down by a configurable
factor (default 100x — a pure-Python frontend is about two orders of
magnitude slower than clang).

Generated code mixes:

- plain compute functions (the bulk of any real code base);
- spinloop functions in the paper's Figure 3 shapes (global flag waits,
  CAS acquire loops, masked-field waits);
- optimistic (seqlock-style) readers;
- functions using existing C11 atomics and inline asm (the original
  implicit/explicit barrier counts);
- a runnable ``main`` so the module also works on the VM.

Determinism: a :class:`random.Random` seeded from the profile name and
the ``seed`` argument drives all choices, so the program is a function
of ``(name, scale, seed)`` in every process.
"""

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class AppProfile:
    """Static statistics of one application from the paper's Table 3."""

    name: str
    sloc: int
    spinloops: int
    optiloops: int
    build_seconds: float  # original build time
    atomig_seconds: float  # build time with AtoMig applied
    orig_explicit: int  # pre-existing explicit barriers
    orig_implicit: int  # pre-existing implicit barriers
    atomig_explicit: int
    atomig_implicit: int
    naive_implicit: int


#: Paper Table 3, verbatim.
PAPER_TABLE3 = {
    "mariadb": AppProfile("mariadb", 3_124_265, 12_880, 1_970,
                          1251, 2421, 0, 968, 12_361, 66_347, 366_774),
    "postgresql": AppProfile("postgresql", 880_400, 1_750, 544,
                             299, 640, 104, 340, 3_455, 42_744, 243_790),
    "leveldb": AppProfile("leveldb", 82_725, 458, 263,
                          77, 201, 0, 390, 2_798, 11_128, 65_042),
    "memcached": AppProfile("memcached", 28_957, 75, 20,
                            17, 30, 2, 0, 231, 1_564, 11_515),
    "sqlite": AppProfile("sqlite", 263_125, 1_057, 254,
                         241, 714, 1, 28, 4_016, 44_860, 122_611),
}


class SyntheticCodebase:
    """Generates one density-matched synthetic application."""

    def __init__(self, profile, scale=100, seed=0):
        self.profile = profile
        self.scale = scale
        # A digest, not ``hash()``: string hashes are salted per process
        # (PYTHONHASHSEED), which would make the program differ per run.
        name_hash = int.from_bytes(
            hashlib.blake2b(profile.name.encode(), digest_size=2).digest(),
            "big",
        )
        self.rng = random.Random(name_hash * 31 + seed)
        self.parts = []
        self.fn_counter = 0
        self.global_counter = 0
        # Scaled targets (at least one of each present feature).
        self.target_sloc = max(profile.sloc // scale, 400)
        self.n_spinloops = max(profile.spinloops // scale, 1)
        self.n_optiloops = max(profile.optiloops // scale, 1)
        self.n_explicit = max(profile.orig_explicit // scale,
                              1 if profile.orig_explicit else 0)
        self.n_implicit = max(profile.orig_implicit // scale,
                              1 if profile.orig_implicit else 0)

    # -- naming ------------------------------------------------------------

    def _fn(self, prefix):
        self.fn_counter += 1
        return f"{prefix}_{self.fn_counter}"

    def _glob(self, prefix):
        self.global_counter += 1
        return f"{prefix}_{self.global_counter}"

    # -- program fragments ----------------------------------------------------

    def _compute_function(self):
        name = self._fn("compute")
        iters = self.rng.randint(4, 16)
        lines = [f"int {name}(int x) {{",
                 "    int acc = x;",
                 f"    for (int i = 0; i < {iters}; i++) {{"]
        for _ in range(self.rng.randint(2, 6)):
            op = self.rng.choice(["+", "*", "^", "|"])
            lines.append(
                f"        acc = (acc {op} {self.rng.randint(1, 97)}) % 65521;"
            )
        lines += ["    }", "    return acc;", "}", ""]
        return name, "\n".join(lines)

    def _shared_helper(self):
        """Plain shared-state helper: Naive must atomize these accesses."""
        gname = self._glob("table")
        size = self.rng.choice([32, 64, 128])
        name = self._fn("touch")
        text = (
            f"int {gname}[{size}];\n"
            f"void {name}(int k, int v) {{\n"
            f"    {gname}[k % {size}] = {gname}[(k + 1) % {size}] + v;\n"
            f"}}\n\n"
        )
        return name, text

    def _spinloop_function(self, kind):
        gname = self._glob("flag")
        name = self._fn("wait")
        if kind == 0:  # Figure 3, spinloop 1: plain global wait
            text = (
                f"int {gname} = 0;\n"
                f"void {name}() {{\n"
                f"    while ({gname} == 0) {{ cpu_relax(); }}\n"
                f"}}\n\n"
            )
        elif kind == 1:  # Figure 3, spinloop 3: masked wait via a local
            text = (
                f"int {gname} = 0;\n"
                f"void {name}() {{\n"
                f"    int l;\n"
                f"    do {{\n"
                f"        l = {gname} & 255;\n"
                f"    }} while (l != 1);\n"
                f"}}\n\n"
            )
        else:  # CAS acquire loop (Figure 4)
            text = (
                f"int {gname} = 0;\n"
                f"void {name}() {{\n"
                f"    while (atomic_cmpxchg_explicit(&{gname}, 0, 1, "
                f"memory_order_relaxed) != 0) {{ cpu_relax(); }}\n"
                f"}}\n"
                f"void {name}_release() {{\n"
                f"    {gname} = 0;\n"
                f"}}\n\n"
            )
        return name, text

    def _optiloop_function(self):
        seq = self._glob("seq")
        data = self._glob("odata")
        name = self._fn("optread")
        return name, (
            f"volatile int {seq} = 0;\n"
            f"int {data} = 0;\n"
            f"int {name}() {{\n"
            f"    int s;\n"
            f"    int v;\n"
            f"    do {{\n"
            f"        s = {seq};\n"
            f"        v = {data};\n"
            f"    }} while (s % 2 != 0 || s != {seq});\n"
            f"    return v;\n"
            f"}}\n\n"
        )

    def _explicit_barrier_function(self):
        name = self._fn("asmfence")
        gname = self._glob("published")
        return name, (
            f"int {gname} = 0;\n"
            f"void {name}(int v) {{\n"
            f"    {gname} = v;\n"
            f'    __asm__("mfence");\n'
            f"}}\n\n"
        )

    def _implicit_barrier_function(self):
        name = self._fn("stat")
        gname = self._glob("counter")
        return name, (
            f"_Atomic int {gname} = 0;\n"
            f"void {name}() {{\n"
            f"    atomic_fetch_add_explicit(&{gname}, 1, "
            f"memory_order_relaxed);\n"
            f"}}\n\n"
        )

    # -- assembly ------------------------------------------------------------------

    def generate(self):
        """Return the complete Mini-C source text."""
        parts = [f"// synthetic codebase: {self.profile.name} "
                 f"(1/{self.scale} scale)\n"]
        compute_names = []

        for _ in range(self.n_explicit):
            _, text = self._explicit_barrier_function()
            parts.append(text)
        for _ in range(self.n_implicit):
            _, text = self._implicit_barrier_function()
            parts.append(text)
        for index in range(self.n_spinloops):
            _, text = self._spinloop_function(index % 3)
            parts.append(text)
        for _ in range(self.n_optiloops):
            _, text = self._optiloop_function()
            parts.append(text)

        current_sloc = sum(text.count("\n") for text in parts)
        while current_sloc < self.target_sloc:
            if self.rng.random() < 0.15:
                _, text = self._shared_helper()
            else:
                name, text = self._compute_function()
                compute_names.append(name)
            parts.append(text)
            current_sloc += text.count("\n")

        calls = "\n".join(
            f"    total = total + {name}({i});"
            for i, name in enumerate(compute_names[:20])
        )
        parts.append(
            "int main() {\n"
            "    int total = 0;\n"
            f"{calls}\n"
            "    return total;\n"
            "}\n"
        )
        return "".join(parts)


def generate_codebase(app_name, scale=100, seed=0):
    """Generate the synthetic stand-in for ``app_name`` at ``1/scale``."""
    profile = PAPER_TABLE3[app_name]
    return SyntheticCodebase(profile, scale=scale, seed=seed).generate()
