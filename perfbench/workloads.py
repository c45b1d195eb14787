"""The benchmark's three workloads: their seeded inputs, their jobs, and the
checks on every job's output.

A job is one operation the loop times: one CLI invocation in
``cli-pipeline``, one instance's complete verdict in the library workloads.
``run`` does the program's work and is timed; ``check`` compares the output
with ``reference.py`` and is not.  ``check`` returns True for an operation
the program refused in the one way the workload allows, raises
``CheckFailed`` for anything else that is wrong, and returns False when the
output is right.

Run as a script, ``workloads.py WORKLOAD SEED`` times one cold set-up of a
library workload and prints the scaled seconds (see calibration.py);
``run.py`` starts it several times and reports the median as ``setup_s``.
"""

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref
from calibration import timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Large enough that no library call is refused.
LIBRARY_BUDGET = 10**12

# (v, k, lambda) of every catalog entry the workloads use, from the
# published parameters the entry names carry.
PARAMS = {
    "cdf-13-3-1": (13, 3, 1),
    "cdf-31-6-1": (31, 6, 1),
    "cdf-41-5-1": (41, 5, 1),
    "cdf-57-8-1": (57, 8, 1),
    "cdf-73-9-1": (73, 9, 1),
    "cdf-337-7-1": (337, 7, 1),
    "netto-61": (61, 3, 1),
    "netto-97": (97, 3, 1),
    "biplane-cdf-11-5-2": (11, 5, 2),
}

CYCLIC = ("cdf-337-7-1", "cdf-73-9-1", "cdf-57-8-1", "cdf-41-5-1",
          "cdf-31-6-1", "netto-97", "netto-61", "cdf-13-3-1",
          "biplane-cdf-11-5-2")
# The order-2 online game on cdf-337-7-1 takes close to a minute; it stays
# out by this threshold.
ONLINE_ORDER_2_MAX_V = 73

GENERIC = ("cdf-337-7-1", "netto-97", "cdf-73-9-1", "cdf-57-8-1", "netto-61")

CLI_FAMILIES = ("cdf-13-3-1", "cdf-57-8-1", "cdf-73-9-1", "netto-97",
                "cdf-337-7-1")
# The one known fault kept in the workload: both oracle commands on this
# family are refused at the default budget (exit 3), though the games take
# well under a second.
CLI_REFUSED = "cdf-337-7-1"


class CheckFailed(Exception):
    """The program's output disagrees with the reference."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable


def use_source_tree():
    """Import authdesigns from the checkout's src/, never from elsewhere."""
    if not (SRC / "authdesigns" / "__init__.py").is_file():
        raise FileNotFoundError(f"no authdesigns package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# attack-cyclic

@dataclass
class CyclicInput:
    name: str
    family: object
    report: object
    matrix: object


def cyclic_inputs(seed):
    """Set-up of attack-cyclic: each catalog family (verified on load), moved
    by a seeded affine map x -> ux + s, verified and developed."""
    from authdesigns import catalog
    from authdesigns import difference_families as dfs
    rng = random.Random(seed)
    inputs = []
    for name in CYCLIC:
        family = catalog.load_payload(name)
        v = family.v
        unit = rng.choice([u for u in range(1, v) if math.gcd(u, v) == 1])
        image = dfs.DifferenceFamily(
            v=v, lambda_=family.lambda_,
            base_blocks=ref.affine_image(v, family.base_blocks, unit,
                                         rng.randrange(v)))
        inputs.append(CyclicInput(name, image, dfs.verify_df(image),
                                  dfs.develop_matrix(image)))
    return inputs


def _cyclic_orders(v, k):
    deception = tuple(range(min(k - 1, 3) + 1))
    online = (0, 1, 2) if v <= ONLINE_ORDER_2_MAX_V else (0, 1)
    return deception, (0, 1), online


def cyclic_jobs(inputs):
    from authdesigns import analysis
    jobs = []
    for item in inputs:
        v, k, lam = PARAMS[item.name]
        blocks = item.family.base_blocks
        rows = item.matrix.rows
        expect(item.report.valid and ref.is_difference_family(v, lam, blocks),
               f"{item.name}: the mapped family is not a ({v},{k},{lam}) CDF")
        expect(item.family.k == k, f"{item.name}: block size {item.family.k}")
        expect(list(rows) == ref.developed_rows(v, blocks),
               f"{item.name}: developed rows differ from (d_j + g) mod v")
        expect(ref.every_count_is(v, rows, len(rows) // v),
               f"{item.name}: a message-column count is not b/v")
        dec_orders, off_orders, on_orders = _cyclic_orders(v, k)
        if lam == 1:
            dec = tuple(ref.steiner_deception(v, k, i) for i in dec_orders)
            on = tuple(ref.steiner_online(v, k, len(rows), i) for i in on_orders)
        else:
            dec = tuple(ref.naive_deception(v, rows, i) for i in dec_orders)
            on = tuple(ref.online_cover(v, rows, i) for i in on_orders)
        off = tuple(ref.offline_value(v, k) for _ in off_orders)
        expected = ((True, None), dec, off, on)

        def run(matrix=item.matrix, orders=(dec_orders, off_orders, on_orders)):
            system = analysis.SecrecySystem(matrix)
            return (
                analysis.perfect_secrecy_check(matrix),
                tuple(analysis.deception_probability(system, i, LIBRARY_BUDGET)
                      for i in orders[0]),
                tuple(analysis.voracle_offline_value(system, i, LIBRARY_BUDGET)
                      for i in orders[1]),
                tuple(analysis.voracle_online_value(system, i, LIBRARY_BUDGET)
                      for i in orders[2]),
            )

        def check(output, name=item.name, expected=expected):
            expect(output == expected,
                   f"{name}: got {output}, reference {expected}")
            return False

        jobs.append(Job(item.name, run, check))
    return jobs


# ---------------------------------------------------------------------------
# build-generic

@dataclass
class GenericInput:
    name: str
    design: object


def generic_inputs(seed):
    """Set-up of build-generic: each catalog family developed into its
    design, then its points relabelled by a seeded permutation, drawn again
    while the result is still invariant under x -> x + 1 mod v."""
    from authdesigns import catalog, designs
    from authdesigns import difference_families as dfs
    rng = random.Random(seed)
    inputs = []
    for name in GENERIC:
        developed = dfs.develop(catalog.load_payload(name))
        v = developed.v
        while True:
            permutation = list(range(v))
            rng.shuffle(permutation)
            blocks = ref.relabel(developed.blocks, permutation)
            if not ref.translation_invariant(v, blocks):
                break
        inputs.append(GenericInput(name, designs.BlockDesign(v=v, blocks=blocks)))
    return inputs


def generic_jobs(inputs):
    from authdesigns import analysis, balancing, designs
    jobs = []
    for item in inputs:
        v, k, lam = PARAMS[item.name]
        blocks = item.design.blocks
        b = len(blocks)
        expect(ref.is_t_design(v, blocks, 2, lam),
               f"{item.name}: the relabelled input is not a 2-({v},{k},{lam}) design")
        expected_values = (
            tuple(ref.steiner_deception(v, k, i) for i in (0, 1, 2)),
            ref.offline_value(v, k),
            ref.steiner_online(v, k, b, 1),
        )

        def run(design=item.design):
            report = designs.verify_design(design, 2, None, LIBRARY_BUDGET)
            matrix = balancing.balance(design)
            balanced = balancing.verify_balanced(matrix)
            system = analysis.SecrecySystem(matrix)
            return (report, matrix, balanced,
                    tuple(analysis.deception_probability(system, i, LIBRARY_BUDGET)
                          for i in (0, 1, 2)),
                    analysis.voracle_offline_value(system, 1, LIBRARY_BUDGET),
                    analysis.voracle_online_value(system, 1, LIBRARY_BUDGET))

        def check(output, name=item.name, blocks=blocks, v=v, lam=lam,
                  expected=expected_values):
            report, matrix, balanced, *values = output
            expect(report.valid and report.inferred_lambda == lam,
                   f"{name}: verify_design says valid={report.valid}, "
                   f"lambda={report.inferred_lambda}")
            expect(ref.same_block_set(matrix.rows, blocks),
                   f"{name}: balanced rows are not the design's blocks")
            expect(ref.every_count_is(v, matrix.rows, len(blocks) // v),
                   f"{name}: a message-column count is not b/v")
            expect(balanced.valid, f"{name}: verify_balanced rejects the matrix")
            expect(tuple(values) == expected,
                   f"{name}: got {tuple(values)}, reference {expected}")
            return False

        jobs.append(Job(item.name, run, check))
    return jobs


class LibraryWorkload:
    """A workload whose jobs call the library in this process.  With a
    tracer, every pass first builds its inputs again, so the set-up layers
    show in the per-pass figures."""

    def __init__(self, name, make_inputs, make_jobs, seed, tracer):
        self.name = name
        self.make_inputs = make_inputs
        self.make_jobs = make_jobs
        self.seed = seed
        self.tracer = tracer
        use_source_tree()
        self.jobs = make_jobs(make_inputs(seed))
        if tracer is not None:
            tracer.install()

    def setup_times(self, repeats):
        probe = [sys.executable, str(HERE / "workloads.py"), self.name,
                 str(self.seed)]
        times = []
        for _ in range(repeats):
            done = subprocess.run(probe, capture_output=True, text=True,
                                  timeout=120, check=True)
            times.append(float(done.stdout.strip().splitlines()[-1]))
        return times

    def pass_jobs(self, pass_no):
        if self.tracer is not None:
            self.tracer.job = f"{pass_no}:setup"
            inputs, scaled, raw = timed(lambda: self.make_inputs(self.seed))
            self.tracer.scales[self.tracer.job] = scaled / raw
            self.jobs = self.make_jobs(inputs)
        return self.jobs

    def after_job(self, output):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli-pipeline

def _fraction(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


def _read(path):
    with open(path) as fh:
        return json.load(fh)


class CliPipeline:
    """One subprocess per CLI command, run one at a time in a scratch
    directory of the checkout, at the CLI's default budget."""

    def __init__(self, seed, workdir, tracer):
        use_source_tree()
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.env = {key: value for key, value in os.environ.items()
                    if key != "AUTHDESIGNS_BUDGET"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))
        self.spans_file = self.workdir / "spans.json"
        pipelines = [self._family_pipeline(name) for name in CLI_FAMILIES]
        pipelines += [self._design_pipeline(), self._apa_pipeline()]
        random.Random(seed).shuffle(pipelines)
        self.jobs = [job for pipeline in pipelines for job in pipeline]

    # -- running -----------------------------------------------------------

    def _command(self, args, traced):
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"),
                    str(self.spans_file), *args]
        return [sys.executable, "-m", "authdesigns.cli", *args]

    def _invoke(self, args, traced=None):
        traced = self.tracer is not None if traced is None else traced
        if traced:
            self.spans_file.unlink(missing_ok=True)
        return subprocess.run(self._command(args, traced), cwd=self.workdir,
                              env=self.env, capture_output=True, text=True,
                              timeout=120)

    def setup_times(self, repeats):
        """Cold start of the CLI: wall time of ``authdesigns --help``.  One
        untimed call first fills the bytecode cache."""
        self._invoke(["--help"], traced=False)
        times = []
        for _ in range(repeats):
            done, elapsed, _ = timed(lambda: self._invoke(["--help"], traced=False))
            times.append(elapsed)
            expect(done.returncode == 0 and "usage:" in done.stdout,
                   f"authdesigns --help exited {done.returncode}")
        return times

    def pass_jobs(self, pass_no):
        return self.jobs

    def after_job(self, output):
        if self.tracer is not None:
            self.tracer.adopt(_read(self.spans_file)["spans"], self.tracer.job,
                              self.tracer.pass_no)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _job(self, name, args, check, may_refuse=False):
        def run():
            return self._invoke(args)

        def checked(done):
            if may_refuse and done.returncode == 3:
                expect(done.stderr.startswith("error:") and "budget" in done.stderr,
                       f"{name}: exit 3 without a budget error: {done.stderr!r}")
                return True
            expect(done.returncode == 0,
                   f"{name}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
            check(json.loads(done.stdout))
            return False

        return Job(name, run, checked)

    # -- pipelines ---------------------------------------------------------

    def _family_pipeline(self, name):
        v, k, lam = PARAMS[name]
        source, matrix_file = f"{name}.json", f"{name}-matrix.json"
        where = self.workdir

        def exported(out):
            doc = _read(where / source)
            expect(out["out"] == source, f"export {name}: wrote {out['out']}")
            expect(doc["v"] == v and doc["lambda"] == lam
                   and all(len(block) == k for block in doc["base_blocks"])
                   and ref.is_difference_family(v, lam, doc["base_blocks"]),
                   f"export {name}: not a ({v},{k},{lam}) difference family")

        def built(out):
            family, matrix = _read(where / source), _read(where / matrix_file)
            digest = ref.canonical_digest(family)
            rows = [tuple(row) for row in matrix["rows"]]
            expect(rows == ref.developed_rows(v, family["base_blocks"]),
                   f"build {name}: rows differ from (d_j + g) mod v")
            expect((matrix["v"], matrix["k"], matrix["b"]) == (v, k, len(rows))
                   and (out["v"], out["k"], out["b"]) == (v, k, len(rows)),
                   f"build {name}: wrong dimensions")
            expect(ref.every_count_is(v, rows, len(rows) // v),
                   f"build {name}: a message-column count is not b/v")
            expect(out["input_digest"] == digest
                   and matrix["provenance"]["input_digest"] == digest,
                   f"build {name}: input_digest differs from the reference")

        def attacked(orders, values, bounds, model):
            def check(out):
                matrix = _read(where / matrix_file)
                expect(out["model"] == model, f"{model} {name}: model {out['model']}")
                expect(out["input_digest"] == ref.canonical_digest(matrix),
                       f"{model} {name}: input_digest differs from the reference")
                got = [(e["i"], _fraction(e["value"]), _fraction(e["bound"]),
                        e["tight"]) for e in out["orders"]]
                want = [(i, values(i, len(matrix["rows"])), bounds(i),
                         values(i, len(matrix["rows"])) == bounds(i))
                        for i in orders]
                expect(got == want, f"{model} {name}: got {got}, reference {want}")
                if model == "classic":
                    order = ref.security_order({i: t for i, _, _, t in want})
                    expect(out["security_order"] == order,
                           f"classic {name}: security order {out['security_order']}")
            return check

        refused = name == CLI_REFUSED
        return [
            self._job(f"export {name}", ["catalog", "export", name, "--out",
                                         source, "--format", "json"], exported),
            self._job(f"build {name}", ["build", source, "--kind", "cdf",
                                        "--out", matrix_file, "--format", "json"],
                      built),
            self._job(f"attack classic {name}",
                      ["attack", matrix_file, "--orders", "0-2", "--format", "json"],
                      attacked((0, 1, 2), lambda i, b: ref.steiner_deception(v, k, i),
                               lambda i: ref.deception_bound(v, k, i), "classic")),
            self._job(f"attack oracle-offline {name}",
                      ["attack", matrix_file, "--model", "oracle-offline",
                       "--orders", "0-1", "--format", "json"],
                      attacked((0, 1), lambda i, b: ref.offline_value(v, k),
                               lambda i: ref.offline_value(v, k), "oracle-offline"),
                      may_refuse=refused),
            self._job(f"attack oracle-online {name}",
                      ["attack", matrix_file, "--model", "oracle-online",
                       "--orders", "0-1", "--format", "json"],
                      attacked((0, 1), lambda i, b: ref.steiner_online(v, k, b, i),
                               lambda i: ref.online_bound(v, k, i), "oracle-online"),
                      may_refuse=refused),
        ]

    def _design_pipeline(self):
        name, source, matrix_file = "complete-5-3", "complete-5-3.json", \
            "complete-5-3-matrix.json"
        v, k, t, lam = 5, 3, 3, 1
        where = self.workdir

        def exported(out):
            doc = _read(where / source)
            expect((doc["v"], doc["k"], doc["t"], doc["lambda"]) == (v, k, t, lam)
                   and ref.is_t_design(v, doc["blocks"], t, lam),
                   f"export {name}: not a {t}-({v},{k},{lam}) design")

        def built(out):
            design, matrix = _read(where / source), _read(where / matrix_file)
            digest = ref.canonical_digest(design)
            expect(ref.same_block_set(matrix["rows"], design["blocks"]),
                   f"build {name}: rows are not the design's blocks")
            expect(ref.every_count_is(v, matrix["rows"], len(matrix["rows"]) // v),
                   f"build {name}: a message-column count is not b/v")
            expect(out["input_digest"] == digest
                   and matrix["provenance"]["input_digest"] == digest,
                   f"build {name}: input_digest differs from the reference")

        def attacked(out):
            matrix = _read(where / matrix_file)
            rows = [tuple(row) for row in matrix["rows"]]
            expect(out["input_digest"] == ref.canonical_digest(matrix),
                   f"classic {name}: input_digest differs from the reference")
            want = []
            for i in (0, 1, 2):
                value, bound = ref.naive_deception(v, rows, i), ref.deception_bound(v, k, i)
                want.append((i, value, bound, value == bound))
            got = [(e["i"], _fraction(e["value"]), _fraction(e["bound"]), e["tight"])
                   for e in out["orders"]]
            expect(got == want, f"classic {name}: got {got}, reference {want}")
            expect(out["security_order"]
                   == ref.security_order({i: tight for i, _, _, tight in want}),
                   f"classic {name}: security order {out['security_order']}")

        return [
            self._job(f"export {name}", ["catalog", "export", name, "--out",
                                         source, "--format", "json"], exported),
            self._job(f"build {name}", ["build", source, "--kind", "design",
                                        "--out", matrix_file, "--format", "json"],
                      built),
            self._job(f"attack classic {name}",
                      ["attack", matrix_file, "--orders", "0-2", "--format", "json"],
                      attacked),
        ]

    def _apa_pipeline(self):
        name, source = "van-rees-apa", "van-rees-apa.json"
        where = self.workdir

        def exported(out):
            doc = _read(where / source)
            expect((doc["t"], doc["k"], doc["v"], doc["lambda"]) == (2, 3, 11, 1)
                   and ref.apa_valid(2, 3, 11, 1, doc["rows"]),
                   f"export {name}: not an APA_1(2,3,11)")

        def verified(out):
            doc = _read(where / source)
            digest = ref.canonical_digest(doc)
            valid = ref.apa_valid(doc["t"], doc["k"], doc["v"], doc["lambda"],
                                  doc["rows"])
            expect(out["kind"] == "apa" and out["valid"] is valid,
                   f"verify {name}: valid={out['valid']}, the reference says {valid}")
            expect(out["input_digest"] == digest,
                   f"verify {name}: input_digest differs from the reference")

        return [
            self._job(f"export {name}", ["catalog", "export", name, "--out",
                                         source, "--format", "json"], exported),
            self._job(f"verify {name}", ["verify", source, "--kind", "apa",
                                         "--format", "json"], verified),
        ]


LIBRARY = {
    "attack-cyclic": (cyclic_inputs, cyclic_jobs),
    "build-generic": (generic_inputs, generic_jobs),
}
WORKLOADS = ("cli-pipeline",) + tuple(LIBRARY)


def make_workload(name, seed, tracer, workdir):
    if name == "cli-pipeline":
        return CliPipeline(seed, workdir, tracer)
    make_inputs, make_jobs = LIBRARY[name]
    return LibraryWorkload(name, make_inputs, make_jobs, seed, tracer)


if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    use_source_tree()
    print(timed(lambda: LIBRARY[workload][0](seed))[1])
