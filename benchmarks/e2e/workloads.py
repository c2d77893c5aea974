"""The four workloads of the end-to-end benchmark.

Every workload drives the same porting path — Mini-C source →
``compile_source`` → ``port_module`` (AtoMig level, static repair) →
weakening → a wmm verdict — through a different front door:

- ``corpus-oneshot``: the concurrent-kernel corpus, serial, in-process;
  oracle probes and exploration dominate.
- ``synth-oneshot``: the Table 3 synthetic apps, serial, in-process;
  frontend, clone, repair and the static verdict dominate.
- ``serve-mixed``: an open-loop stream of optimize/check jobs into an
  in-process :class:`JobDaemon`; the only workload with queueing, job
  store persistence and dedup hits.
- ``tree-fanout``: closed-loop multi-module port jobs fanned over the
  process pool; the only workload that pickles across processes.

Inputs are a function of the workload seed alone; ``inputs()`` also
returns a blake2b digest of each input so run.py can check that two
runs with one seed saw the same sources.

The closed-loop workloads repeat the same work within a run — every
pass ports the same modules, every port tree is the same four apps
under a fresh comment — so the work done depends on the run length
only.  Between the timed operations every workload runs the host-speed
probe of ``metrics.probe_seconds``, which ``metrics.end_to_end`` divides
the measured times by.
"""

import gc
import hashlib
import itertools
import json
import os
import random
import threading
import time
import traceback

import metrics

#: AtoMigConfig knobs of every port: the paper's full AtoMig level
#: plus the static min-cost fence repair.
PORT_CONFIG = {"repair_mode": True}
#: synth-oneshot generates the Table 3 apps at 1/SYNTH_SCALE of the
#: paper's sizes: small enough that a 25 s run holds four to six
#: passes.
SYNTH_SCALE = 400
#: tree-fanout's apps, at the Table 3 harness's default scale.
TREE_SCALE = 100
#: Host-speed probes before each tree (about 25 ms; a tree takes 2 s).
TREE_PROBES = 10
SYNTH_APPS = ("mariadb", "postgresql", "leveldb", "memcached", "sqlite")
TREE_APPS = ("postgresql", "sqlite", "leveldb", "memcached")
#: serve-mixed offered load in jobs/s.  With SERVE_REPEAT, a 25 s run
#: holds 171 jobs of which 70 are fresh: every served module's check
#: job twice and its optimize job three times, so the executed mix
#: depends on the run length only, not on the seed.  Repeats are cheap;
#: the fresh work keeps p90 near 0.1 s, far from saturating two worker
#: threads that share one interpreter lock.
SERVE_RATE = 7.0
#: Share of serve-mixed jobs that resubmit an earlier (kind, module,
#: variant) and so can be answered by the daemon's dedup ...
SERVE_REPEAT = 0.6
#: ... at least this many seconds after it was due, as a client that
#: saw the first result would (the slowest served job takes 0.5 s).
SERVE_REPEAT_AGE = 1.0
#: Share of its slot over which a serve-mixed arrival is jittered.  Two
#: fresh jobs then lie at least 0.26 s apart, so only the slowest
#: optimize jobs (0.2-0.5 s) overlap the next executed one.
SERVE_JITTER = 0.2
#: Corpus modules whose optimize job explores for 0.8-2 s.  With them,
#: at 3 Poisson arrivals/s, where these three landed decided the tail:
#: p90 ranged 0.14-4.5 s over ten seeds.  corpus-oneshot carries them.
SERVE_EXCLUDED = ("ck_spinlock_mcs", "clht_lf", "treiber_stack")
#: Host-speed probes taken at each pause between timed operations
#: (about 10 ms).  With one probe, the ten-seed spread of normalized
#: synth-oneshot throughput was 0.076; with four, 0.053.
PROBES = 4
#: serve-mixed probes the host before a job only if the job is due at
#: least this many seconds later.
SERVE_PROBE_LEAD = 0.02


def digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def synth_source(app, seed, scale):
    """A Table 3 synthetic app whose source depends on ``seed`` only.

    ``SyntheticCodebase`` seeds its RNG from ``hash(app)``, which
    ``PYTHONHASHSEED`` randomizes per process; replacing the RNG before
    ``generate()`` pins the source to ``(app, seed)``.
    """
    from repro.bench.synth import PAPER_TABLE3, SyntheticCodebase

    generator = SyntheticCodebase(PAPER_TABLE3[app], scale=scale)
    generator.rng = random.Random(f"{app}:{seed}")
    return generator.generate()


def corpus_sources():
    """{name: source} of every corpus module with a model-checking client."""
    from repro.bench.corpus import BENCHMARKS

    return {
        name: bench.mc_source()
        for name, bench in sorted(BENCHMARKS.items())
        if bench.mc_source is not None
    }


def _failure():
    return traceback.format_exc().strip().splitlines()[-1]


def sample(seconds, modules, hit=False):
    """One latency sample; ``modules`` are the ``(name, source)`` it
    delivered."""
    return {"seconds": seconds, "hit": hit, "modules": len(modules),
            "lines": sum(source.count("\n") for _name, source in modules)}


class Measurement:
    """What one measured run produced."""

    def __init__(self, open_loop):
        #: Whether arrivals followed a schedule (see ``metrics.end_to_end``).
        self.open_loop = open_loop
        #: One dict per attempted module (see ``metrics.check_outputs``).
        self.deliveries = []
        #: One latency sample per module (one-shot) or job (served).
        self.samples = []
        #: Host-speed probe times, taken while no timed work runs.
        self.probes = []
        #: Job-record timings (serve workloads), for the serve.* layer.
        self.jobs = []
        #: Measured wall seconds and its perf_counter window.
        self.wall_s = 0.0
        self.window = (0.0, 0.0)

    def probe(self, count=PROBES):
        self.probes.extend(metrics.probe_seconds() for _ in range(count))


# -- one-shot ---------------------------------------------------------------


class OneShot:
    """Serial in-process passes: compile → port → repair → optimize → check.

    A closed loop with one client.  Each pass delivers every input module
    once, in an order drawn from the seed; passes repeat while another
    pass of the same length still fits in the run, so every run holds
    whole passes and every module as many samples as there were passes.
    """

    def environment(self, work_dir):
        return {
            "ATOMIG_FRONTEND_CACHE": "0",
            "ATOMIG_CACHE_DIR": os.path.join(work_dir, "modcache"),
            "ATOMIG_JOB_DIR": os.path.join(work_dir, "jobs"),
        }

    def imports(self):
        import repro.analysis.repair  # noqa: F401
        import repro.analysis.robustness  # noqa: F401
        import repro.api  # noqa: F401
        import repro.bench.corpus  # noqa: F401
        import repro.bench.synth  # noqa: F401
        import repro.core.pipeline  # noqa: F401
        import repro.mc.explorer  # noqa: F401
        import repro.opt  # noqa: F401
        import repro.vm.costs  # noqa: F401

    def start(self, ctx):
        return None

    def stop(self, state):
        pass

    def measure(self, ctx, state, sources):
        run = Measurement(open_loop=False)
        start = time.perf_counter()
        number = 0
        while True:
            order = sorted(sources)
            random.Random(f"{self.name}:{ctx.seed}:{number}").shuffle(order)
            busy = 0.0
            for name in order:
                run.probe()
                delivery = self.deliver(ctx, name, sources[name])
                run.deliveries.append(delivery)
                if "error" not in delivery:
                    run.samples.append(sample(delivery["latency_s"],
                                              [(name, sources[name])]))
                busy += delivery["latency_s"]
            run.wall_s += busy
            number += 1
            if run.wall_s + busy > ctx.seconds:
                break
        run.window = (start, time.perf_counter())
        return run

    def deliver(self, ctx, name, source):
        """Run one module through the whole path; the timed unit."""
        from repro import api
        from repro.core.config import AtoMigConfig, PortingLevel
        from repro.vm.costs import cost_model_for, estimate_cost

        # Every module starts from a collected heap, as in a fresh
        # one-shot CLI process; otherwise a collection triggered by the
        # previous module lands in whichever stage runs next.
        gc.collect()
        started = time.perf_counter()
        try:
            with ctx.span("module", module=name):
                module = api.compile_source(source, name, cache=False)
                ported, report = api.port_module(
                    module, PortingLevel.ATOMIG,
                    config=AtoMigConfig(**PORT_CONFIG), optimize=True,
                )
                result = api.check_module(ported, model="wmm",
                                          robustness=True)
        except Exception:
            return {"module": name, "error": _failure(),
                    "latency_s": time.perf_counter() - started}
        latency = time.perf_counter() - started
        return {
            "module": name,
            "key": name,
            "path": "optimized",
            "lines": source.count("\n"),
            "latency_s": latency,
            "verdict": result.outcome,
            "robust_after": report.repair.get("robust_after"),
            "verdict_preserved": report.optimization.get("verdict_preserved"),
            "barrier_cost": estimate_cost(
                ported, cost_model_for("armv8")).barriers,
        }


class CorpusOneShot(OneShot):
    name = "corpus-oneshot"

    def inputs(self, ctx):
        sources = corpus_sources()
        return sources, {name: digest(text) for name, text in sources.items()}


class SynthOneShot(OneShot):
    """Every pass ports the five apps generated from the seed."""

    name = "synth-oneshot"

    def inputs(self, ctx):
        sources = {app: synth_source(app, ctx.seed, SYNTH_SCALE)
                   for app in SYNTH_APPS}
        return sources, {f"{app}@{ctx.seed}": digest(text)
                         for app, text in sources.items()}


# -- served -----------------------------------------------------------------


class Served:
    """An in-process :class:`JobDaemon` over a fresh store and cache."""

    def environment(self, work_dir):
        # As in the README's serve quickstart: frontend cache on and
        # bounded, store and cache in fresh directories.
        return {
            **OneShot.environment(self, work_dir),
            "ATOMIG_FRONTEND_CACHE": "1",
            "ATOMIG_CACHE_MAX_MB": "256",
        }

    def imports(self):
        import repro.api  # noqa: F401
        import repro.core.parallel  # noqa: F401
        import repro.mc.parallel  # noqa: F401
        import repro.opt.parallel  # noqa: F401
        import repro.serve.queue  # noqa: F401
        import repro.serve.store  # noqa: F401
        OneShot.imports(self)

    def start(self, ctx):
        from repro.core.workers import get_pool
        from repro.serve.queue import JobDaemon
        from repro.serve.store import JobStore

        if self.fanout > 1:
            # Fork the pool before the daemon's worker threads exist.
            get_pool(self.fanout)
        daemon = JobDaemon(JobStore(), workers=self.workers,
                           fanout=self.fanout)
        daemon.start()
        return daemon

    def stop(self, daemon):
        daemon.shutdown(drain=True, timeout=60)

    def finish(self, ctx, run, daemon, sent, origin):
        """Wait for every sent job; turn records into deliveries."""
        deadline = time.time() + 60 + ctx.seconds
        finished = []
        for job, due, submitted, job_id, error in sent:
            record = None
            if job_id is not None:
                record = daemon.wait(job_id,
                                     timeout=max(0.0, deadline - time.time()))
            if record is None or record["state"] != "done":
                reason = error or (record or {}).get("error") or (
                    f"job ended {record['state']}" if record else "not sent")
                run.deliveries.extend(
                    {"module": f"{job['label']}:{name}", "error": reason}
                    for name, _source in job["modules"])
                continue
            finished.append(record["finished"])
            run.samples.append(sample(record["finished"] - due,
                                      job["modules"],
                                      hit=bool(record["cache_hit"])))
            run.jobs.append({
                "hit": bool(record["cache_hit"]),
                "repeat": job["repeat"],
                "late": submitted - due,
                "queue_wait": (record["started"] or record["created"])
                - record["created"],
                "run": record["seconds"] or 0.0,
            })
            for delivery in self.deliveries(job, record["result"]):
                delivery["hit"] = bool(record["cache_hit"])
                run.deliveries.append(delivery)
        run.wall_s = max(finished, default=origin) - origin


class ServeMixed(Served):
    """Open loop: optimize/check jobs at a constant SERVE_RATE.

    Arrival ``i`` is due at a random point in the first SERVE_JITTER of
    its own ``1/SERVE_RATE`` slot rather than at Poisson times: with
    ~100 jobs a run, where Poisson clumps fell would decide p90.  The
    number of jobs, the executed (kind, module) mix and which slots hold
    fresh jobs are fixed by the run length; the seed picks the order,
    the jitter and which earlier job each repeat resubmits.  Repeat
    slots in the first SERVE_REPEAT_AGE seconds stay empty.  Fresh jobs cycle
    through every optimize job first, so the delivered barrier cost
    covers the whole served set.
    """

    name = "serve-mixed"
    workers = 2
    fanout = 1

    def inputs(self, ctx):
        rng = random.Random(f"serve:{ctx.seed}")
        sources = corpus_sources()
        names = sorted(set(sources) - set(SERVE_EXCLUDED))
        total = max(1, round(SERVE_RATE * ctx.seconds))
        fresh = max(1, total - round(SERVE_REPEAT * total))
        # Fresh jobs sit in evenly spaced slots, 2-3 slots apart.  Where
        # random placement bunched them, two executed jobs shared the
        # interpreter lock, and how often that happened decided the
        # executed latency: at fixed seeds it repeated, at 0.12 s vs
        # 0.17 s median optimize latency.
        fresh_at = {number * total // fresh for number in range(fresh)}
        optimizes = [("optimize", name) for name in names]
        checks = [("check", name) for name in names]
        rng.shuffle(optimizes)
        rng.shuffle(checks)
        pairs = optimizes + checks
        fresh_pairs = [pairs[index % len(pairs)] for index in range(fresh)]
        rng.shuffle(fresh_pairs)
        variants = {}
        emitted = []
        schedule = []
        for index in range(total):
            due = (index + SERVE_JITTER * rng.random()) / SERVE_RATE
            if index in fresh_at:
                kind, name = fresh_pairs.pop()
                variant = variants.get((kind, name), -1) + 1
                variants[kind, name] = variant
                emitted.append((kind, name, variant, due))
            else:
                old = [job for job in emitted
                       if job[3] <= due - SERVE_REPEAT_AGE]
                if not old:
                    continue  # nothing is old enough to repeat yet
                kind, name, variant, _ = rng.choice(old)
            source = f"{sources[name]}\n// serve variant {variant}\n"
            schedule.append({
                "due": due,
                "kind": kind,
                "label": f"{kind}:{name}#{variant}",
                "repeat": index not in fresh_at,
                "modules": [(name, source)],
                "payload": self.payload(kind, name, source),
            })
        digests = {job["label"]: digest(json.dumps(job["payload"],
                                                   sort_keys=True))
                   for job in schedule}
        digests["schedule"] = digest(json.dumps(
            [(job["due"], job["label"]) for job in schedule]))
        return schedule, digests

    @staticmethod
    def payload(kind, name, source):
        payload = {
            "modules": [{"name": name, "source": source}],
            "level": "atomig",
            "config": dict(PORT_CONFIG),
        }
        if kind == "optimize":
            payload.update(model="wmm", options={"arch": "armv8"})
        else:
            payload.update(models=["wmm"], options={"robustness": True})
        return payload

    def measure(self, ctx, daemon, schedule):
        run = Measurement(open_loop=True)
        sent = []
        start = time.perf_counter()
        origin = time.time() + 0.05

        def idle():
            states = daemon.stats()["states"]
            return not (states.get("queued") or states.get("running"))

        def generate():
            for job in schedule:
                due = origin + job["due"]
                # Nothing else submits, so a daemon idle now stays idle
                # until this job: the probe shares the host with no job.
                if due - time.time() > SERVE_PROBE_LEAD and idle():
                    run.probe()
                delay = due - time.time()
                if delay > 0:
                    time.sleep(delay)
                submitted = time.time()
                try:
                    record = daemon.submit(job["kind"], job["payload"])
                except Exception:
                    sent.append((job, due, submitted, None, _failure()))
                else:
                    sent.append((job, due, submitted, record["id"], None))

        generator = threading.Thread(target=generate, name="e2e-generator")
        generator.start()
        generator.join()
        self.finish(ctx, run, daemon, sent, origin)
        run.window = (start, time.perf_counter())
        return run

    @staticmethod
    def deliveries(job, result):
        (name, source), = job["modules"]
        delivery = {"module": job["label"], "key": name, "path": "optimized",
                    "lines": source.count("\n")}
        if job["kind"] == "check":
            delivery["verdict"] = result["checks"][0]["outcome"]
        else:
            report = result["modules"][0]["report"]
            delivery.update(
                verdict=report["final_outcome"],
                verdict_preserved=report["verdict_preserved"],
                barrier_cost=report["barrier_cost_after"],
            )
        return [delivery]


class TreeFanout(Served):
    """Closed loop: one client submits four-app port trees back to back.

    Every tree holds the same four apps, generated from the seed, each
    under a comment naming the tree: the trees do the same work, and
    every one is new to the frontend cache and the dedup index.
    """

    name = "tree-fanout"
    workers = 1
    fanout = 2

    def inputs(self, ctx):
        modules = [(app, synth_source(app, ctx.seed, TREE_SCALE))
                   for app in TREE_APPS]
        return modules, {f"{app}@{ctx.seed}": digest(source)
                         for app, source in modules}

    @staticmethod
    def tree(modules, index):
        modules = [(app, f"{source}\n// tree variant {index}\n")
                   for app, source in modules]
        return {
            "label": f"tree{index}",
            "repeat": False,
            "modules": modules,
            "payload": {
                "modules": [{"name": app, "source": source}
                            for app, source in modules],
                "level": "atomig",
                "config": dict(PORT_CONFIG),
                "options": {"emit_ir": True},
            },
        }

    def measure(self, ctx, daemon, modules):
        run = Measurement(open_loop=False)
        sent = []
        start = time.perf_counter()
        origin = time.time()
        for index in itertools.count():
            tree = self.tree(modules, index)
            # The pool is idle between trees; probing while it ports
            # would time the scheduler, with three processes on two CPUs.
            run.probe(TREE_PROBES)
            submitted = time.time()
            try:
                record = daemon.submit("port", tree["payload"])
            except Exception:
                sent.append((tree, submitted, submitted, None, _failure()))
                break
            daemon.wait(record["id"], timeout=60 + ctx.seconds)
            sent.append((tree, submitted, submitted, record["id"], None))
            elapsed = time.time() - origin
            if elapsed + (time.time() - submitted) > ctx.seconds:
                break
        self.finish(ctx, run, daemon, sent, origin)
        run.window = (start, time.perf_counter())
        return run

    @staticmethod
    def deliveries(tree, result):
        rows = []
        for (name, source), row in zip(tree["modules"], result["modules"]):
            delivery = {"module": f"{tree['label']}:{name}", "key": name,
                        "path": "ported", "lines": source.count("\n")}
            repair = (row["report"] or {}).get("repair") or {}
            if not row["ir"]:
                delivery["error"] = "port job returned no IR"
            elif not repair:
                delivery["error"] = "port report has no repair section"
            else:
                delivery.update(
                    robust_after=repair["robust_after"],
                    barrier_cost=repair["cost_after"]["barriers"],
                )
            rows.append(delivery)
        return rows


WORKLOADS = {
    workload.name: workload
    for workload in (CorpusOneShot(), SynthOneShot(), ServeMixed(),
                     TreeFanout())
}
