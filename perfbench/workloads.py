"""The four workloads: seeded inputs, the timed zpcount calls, and the checks.

Each workload turns a seed into a fixed task list (the benchmark's set-up),
runs one task at a time (timed), and checks a task's output against an exact
oracle (untimed).  The shape of every task list (primes, sizes, exponent
strata, catalogs, commands) is fixed; the seed draws only inputs whose cost
does not depend on the draw (the members of a set of fixed size, k inside a
3 % band, the order of CLI commands).  Two seeds therefore give lists of the
same work, and the seed changes which inputs run, not how much a run measures.

zpcount is looked up as a module attribute at call time (Z.s_k_count), never
bound by name here, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import mpmath as mp

import cli_menu
import oracles as O

PYTHON = sys.executable


def zp():
    import zpcount

    return zpcount


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _spread(items: list, cost, n: int) -> list:
    """n items spread over the cost range: the middle item of each of n strata
    of ascending cost.  Deterministic, so it fixes a list's shape, not its
    inputs."""
    ranked = sorted(items, key=cost)
    return [ranked[(2 * i + 1) * len(ranked) // (2 * n)] for i in range(n)]


def _random_mask(rng: random.Random, p: int, size: int) -> int:
    return O.mask_of(p, rng.sample(range(p), size))


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@dataclass
class Task:
    label: str
    data: tuple
    extra: dict = field(default_factory=dict)


# --- exact_large_k ---------------------------------------------------------------


class ExactLargeK:
    """s_k_count and F_value on one set, p in [31, 61], k log-uniform in [1e3, 10^3.4]."""

    name = "exact_large_k"
    in_process = True
    primes = (31, 37, 41, 43, 47, 53, 59, 61)
    blocks = 4  # each prime gets one k from each quarter of the log range
    decades = 0.4  # k up to 10^3.4 ~ 2500: a pass of about 2 s, a dozen per run

    def tasks(self, seed: int) -> list[Task]:
        # The (p, k-stratum) pairing is fixed; the seed draws k inside its
        # 1/32 of the log range (3 % wide) and the members of A, |A| = p // 2.
        rng = _rng(self.name, seed)
        n = len(self.primes) * self.blocks
        out = []
        for block in range(self.blocks):
            for j, p in enumerate(self.primes):
                i = block * len(self.primes) + (j + 3 * block) % len(self.primes)
                k = round(10 ** (3 + self.decades * (i + rng.random()) / n))
                mask = _random_mask(rng, p, p // 2)
                out.append(Task(f"p={p} k={k}", (p, mask, k)))
        return out

    def run(self, task: Task, traced: bool):
        Z = zp()
        p, mask, k = task.data
        a = Z.Subset(p, mask)
        return Z.s_k_count(a, k), Z.F_value(a, k)

    def digest(self, result) -> str:
        count, fval = result
        return _hash((hex(count), mp.nstr(fval.value, 40), mp.nstr(fval.err, 20)))

    def check(self, task: Task, result) -> bool:
        p, mask, k = task.data
        count, fval = result
        expected = O.s_k(p, mask, k)
        return count == expected and O.spectral_identity_holds(
            p, bin(mask).count("1"), k, expected, fval)


# --- pollard_exhaustive ----------------------------------------------------------


class PollardExhaustive:
    """Criterion-3/4 sweeps: every (A_1, A_2) pair of a size triple at p = 7,
    every head A_0 of its size, every r in 1..|A_1|; plus sampled pairs and
    heads at p = 11."""

    name = "pollard_exhaustive"
    in_process = True
    n_p7 = 24
    p7_cheapest = 0.4  # the p = 7 triples come from the cheapest 40 % by cost
    n_p11 = 16
    p11_random_pairs = 6
    p11_interval_pairs = 6
    p11_random_heads = 20

    def tasks(self, seed: int) -> list[Task]:
        Z = zp()
        rng = _rng(self.name, seed)
        p = 7
        triples = [(a0, a1, a2) for a0 in range(1, p) for a1 in range(1, p)
                   for a2 in range(a1, p)]

        def cost(t):
            # In units of one sigma_vector call: an extremality check makes one,
            # two when r0 >= 1; each r of the sweep costs about five.
            a0, a1, a2 = t
            c1, c2 = math.comb(p, a1), math.comb(p, a2)
            pairs = c1 * (c1 + 1) // 2 if a1 == a2 else c1 * c2
            r0_positive = min(p, a1 + a2 - 1) > p - a0  # n_1 of the interval pair
            return pairs * (math.comb(p, a0) * (1 + r0_positive) + 5 * a1)

        # The p = 7 sweeps are exhaustive, so the triples alone fix their
        # inputs: the same triples for every seed.
        cheap = sorted(triples, key=cost)[:round(self.p7_cheapest * len(triples))]
        picks = _spread(cheap, cost, self.n_p7)
        out = []
        for a0, a1, a2 in picks:
            m1s = list(Z.subset_masks_of_size(p, a1))
            m2s = list(Z.subset_masks_of_size(p, a2))
            pairs = [(Z.Subset(p, m1), Z.Subset(p, m2)) for m1 in m1s for m2 in m2s
                     if a1 != a2 or m2 >= m1]
            heads = [Z.Subset(p, m) for m in Z.subset_masks_of_size(p, a0)]
            out.append(Task(f"p=7 sizes=({a0},{a1},{a2})", (p, a0, a1, a2, pairs, heads),
                            {"exhaustive": True}))
        p = 11
        for i in range(self.n_p11):
            # fixed sizes, seeded sets: the median task is one of these, so
            # their cost must not depend on the seed
            a1 = 2 + i % (p - 3)
            a0 = 2 + 3 * i % (p - 3)
            a2 = a1 + i // (p - 3) * (p - 2 - a1) // 2
            pairs = []
            for _ in range(self.p11_random_pairs):
                pairs.append((Z.Subset(p, _random_mask(rng, p, a1)),
                              Z.Subset(p, _random_mask(rng, p, a2))))
            xis = []
            for _ in range(self.p11_interval_pairs):
                xi = rng.randint(1, p - 1)
                xis.append(xi)
                pairs.append((Z.Subset(p, O.affine_image(p, (1 << a1) - 1, xi, rng.randrange(p))),
                              Z.Subset(p, O.affine_image(p, (1 << a2) - 1, xi, rng.randrange(p)))))
            heads = [Z.Subset(p, _random_mask(rng, p, a0)) for _ in range(self.p11_random_heads)]
            # dilated interval heads: for interval pairs one of them is a minimizer
            for xi in sorted(set(xis))[:2]:
                heads += [Z.Subset(p, O.affine_image(p, (1 << a0) - 1, xi, t)) for t in range(p)]
            out.append(Task(f"p=11 sizes=({a0},{a1},{a2})", (p, a0, a1, a2, pairs, heads),
                            {"exhaustive": False}))
        return out

    def run(self, task: Task, traced: bool):
        Z = zp()
        p, a0, a1, a2, pairs, heads = task.data
        out = []
        for s1, s2 in pairs:
            pair = [s1, s2]
            conds = [Z.check_extremality_conditions(h, pair) for h in heads]
            sums = [(Z.pollard_lhs_rhs(pair, r), Z.classify_equality_k2(s1, s2, r).tag.value)
                    for r in range(1, a1 + 1)]
            out.append((conds, sums))
        return out

    def digest(self, result) -> str:
        return _hash(result)

    def check(self, task: Task, result) -> bool:
        Z = zp()
        p, a0, a1, a2, pairs, heads = task.data
        intervals = [Z.Subset.interval(p, a1), Z.Subset.interval(p, a2)]
        n_int = O.level_counts(p, O.brute_sigma(intervals))
        sigmas = [O.brute_sigma([s1, s2]) for s1, s2 in pairs]
        # the true minimum of s(A_0; A_1, A_2) over all configurations of these sizes
        ivl_min = min(O.brute_s_count(Z.Subset.interval(p, a0, t), intervals) for t in range(p))
        if task.extra["exhaustive"]:
            target = min(sum(sorted(sig)[:a0]) for sig in sigmas)
            if target != ivl_min:
                return False
        else:
            target = ivl_min  # interval configurations attain it (Pollard)
        head_members = [h.members() for h in heads]
        if len(result) != len(pairs):
            return False
        for sig, (conds, sums) in zip(sigmas, result):
            if len(conds) != len(heads) or len(sums) != a1:
                return False
            for mem, flags in zip(head_members, conds):
                if all(flags) != (sum(sig[x] for x in mem) == target):
                    return False
            n = O.level_counts(p, sig)
            for r, ((lhs, rhs), tag) in enumerate(sums, start=1):
                want = (O.partial_sum(n, r), O.partial_sum(n_int, r))
                if (lhs, rhs) != want or lhs < rhs or (tag == "NONE") != (lhs > rhs):
                    return False
        return True


# --- spectral_certify ------------------------------------------------------------


class SpectralCertify:
    """spectral_levels for fixed (p, a), p <= 23, plus primary_image,
    projection_scores, exact_arg_lattice_index and angle_check_punctured on
    random sets."""

    name = "spectral_certify"
    in_process = True
    primes = (7, 11, 13, 17, 19, 23)
    # Fixed for every seed, smallest catalog first: (p, a) and (p, p - a) have
    # catalogs of one size but not of one cost.  Catalogs stay cached for the
    # rest of a pass, so levels run before the set tasks and peak memory does
    # not depend on the order.  The largest is C(19, 8) = 75582 subsets; the
    # p = 23, a = 7 catalog (245157) alone would take 40 % of a pass.
    levels = ((7, 3), (11, 4), (13, 5), (13, 6), (17, 5), (23, 4), (17, 6), (19, 5),
              (23, 5), (17, 8), (19, 7), (19, 8))
    n_sets = 48

    def tasks(self, seed: int) -> list[Task]:
        rng = _rng(self.name, seed)
        out = [Task(f"levels p={p} a={a}", ("levels", p, a)) for p, a in self.levels]
        last = self.n_sets // len(self.primes) - 1
        for i in range(self.n_sets):
            # The slot fixes p, |D| (2 .. p - 2) and the punctured-interval
            # size (3 .. p - 3); the seed draws the members of D and gamma.
            p = self.primes[i % len(self.primes)]
            row = i // len(self.primes)
            mask = _random_mask(rng, p, 2 + row * (p - 4) // last)
            gamma = rng.randint(1, p - 1)
            a_punct = 3 + row * (p - 6) // last
            out.append(Task(f"set p={p} mask={mask:#x}", ("set", p, mask, gamma, a_punct)))
        return out

    def run(self, task: Task, traced: bool):
        Z = zp()
        if task.data[0] == "levels":
            _, p, a = task.data
            return Z.spectral_levels(p, a)
        _, p, mask, gamma, a_punct = task.data
        d = Z.Subset(p, mask)
        image, amap = Z.primary_image(d)
        ranking = Z.projection_scores(image)
        n = Z.exact_arg_lattice_index(d, gamma)
        angle = Z.angle_check_punctured(p, a_punct)
        return image, amap, ranking, n, angle

    def digest(self, result) -> str:
        if isinstance(result, tuple):
            image, amap, ranking, n, angle = result
            return _hash((image.mask, amap.xi, amap.eta, mp.nstr(ranking.theta, 40),
                          ranking.lattice_index, [s.mask for s in ranking.top_sets], n,
                          angle.to_json()))
        return _hash(result.to_json())

    def check(self, task: Task, result) -> bool:
        if task.data[0] == "levels":
            return self._check_levels(task.data[1], task.data[2], result)
        return self._check_set(task, result)

    @staticmethod
    def _check_levels(p: int, a: int, lv) -> bool:
        if len(lv.levels) < 2 or not lv.min_gap_over_err > 10:
            return False
        interval = O.canonical_mask(p, O.interval_mask(p, a))
        punct = O.canonical_mask(p, O.punctured_mask(p, a))
        if [rep.mask for rep, _ in lv.attainers[0]] != [interval]:
            return False
        if lv.attainers[0][0][1] != (1, p - 1):
            return False
        if [rep.mask for rep, _ in lv.attainers[1]] != [punct]:
            return False
        with mp.workprec(O.ORACLE_PREC):
            tol = 4 * lv.err
            return bool(abs(lv.levels[0] - O.interval_peak(p, a)) <= tol
                        and abs(lv.levels[1] - O.peak_magnitude(p, punct)) <= tol
                        and all(x > y for x, y in zip(lv.levels, lv.levels[1:])))

    @staticmethod
    def _check_set(task: Task, result) -> bool:
        _, p, mask, gamma, a_punct = task.data
        image, amap, ranking, n, angle = result
        size = bin(mask).count("1")
        with mp.workprec(O.ORACLE_PREC):
            pi_p = mp.pi / p
            # primary image: the returned map really produces it, its frequency-1
            # coefficient is the peak, and its argument lies in (-pi/p, pi/p]
            if image.mask != O.affine_image(p, mask, amap.xi, amap.eta):
                return False
            c1 = O.coefficient(p, image.mask, 1)
            if abs(abs(c1) - O.peak_magnitude(p, mask)) > O.TOL:
                return False
            theta = mp.arg(c1)
            if not (-pi_p + O.TOL < theta <= pi_p + O.TOL):
                return False
            # projection scores: theta, its lattice status, and maximal top sets
            if abs(ranking.theta - theta) > O.TOL:
                return False
            idx, off = O.lattice_offset(p, theta)
            on_lattice = off < O.TOL
            if (ranking.lattice_index is not None) != on_lattice:
                return False
            if on_lattice and ranking.lattice_index != idx:
                return False
            h = sorted((mp.cos(2 * mp.pi * j / p + theta) for j in range(p)), reverse=True)
            best = mp.fsum(h[:size])
            tops = [s.mask for s in ranking.top_sets]
            if not tops or len(set(tops)) != len(tops):
                return False
            for s in ranking.top_sets:
                if s.size != size or abs(mp.fsum(
                        mp.cos(2 * mp.pi * j / p + theta) for j in s.members()) - best) > O.TOL:
                    return False
            if h[size - 1] - h[size] > O.TOL and len(tops) != 1:
                return False
            # exact lattice index of an arbitrary coefficient
            idx, off = O.lattice_offset(p, O.argument(p, mask, gamma))
            if n != (idx if off < O.TOL else None):
                return False
            # criterion 6: the punctured interval's argument avoids the lattice,
            # and the size-min(a, p-a) branch set sits in its parity window
            idx, off = O.lattice_offset(p, O.argument(p, O.punctured_mask(p, a_punct), 1))
            if not (angle.passed and angle.exact_nonlattice and angle.branch_ok):
                return False
            if off < mp.mpf(2) ** -64 or angle.nearest_index != idx:
                return False
            if abs(angle.distance - off * pi_p) > O.TOL:
                return False
            b = min(a_punct, p - a_punct)
            if b % 2:
                m = (b - 1) // 2
                branch = O.mask_of(p, [-m - 1] + list(range(-m + 1, m + 1)))
                lo, hi = mp.mpf(0), pi_p
            else:
                m = (b - 2) // 2
                branch = O.mask_of(p, [-m - 1] + list(range(-m + 1, m + 2)))
                lo, hi = -pi_p, mp.mpf(0)
            th_b = O.argument(p, branch, 1)
            return bool(lo < th_b < hi)


# --- extremal_cli ----------------------------------------------------------------


class ExtremalCli:
    """Menu commands (minimize / verify thm3 / verify thm5 / scan-k0, p in 7..23),
    each a fresh `python -m zpcount.cli` process, one at a time."""

    name = "extremal_cli"
    in_process = False
    # The largest catalog build of the menu, C(23, 11) = 1352078 subsets and
    # about 200 MB, in every list: it makes the core layer's largest share
    # fall on this workload and sets peak_rss_mb.
    heavy = "minimize --p 23 --a 11 --k 4"
    n_light = 15
    light_cap_s = 0.45  # reference time of the slowest light command

    def tasks(self, seed: int) -> list[Task]:
        # The commands are the same for every seed; the seed orders them (and
        # picks the command of the determinism check).
        ref = cli_menu.load_reference()
        light = [e for k, e in ref.items()
                 if k != self.heavy and not e["heavy"] and e["ref_s"] <= self.light_cap_s]
        picks = [ref[self.heavy]] + _spread(light, lambda e: (e["ref_s"], cli_menu.key(e["args"])),
                                            self.n_light)
        _rng(self.name, seed).shuffle(picks)
        return [Task(cli_menu.key(e["args"]), tuple(e["args"]),
                     {"exit": e["exit"], "sha256": e["sha256"],
                      "heavy": cli_menu.key(e["args"]) == self.heavy})
                for e in picks]

    def command(self, task: Task, traced: bool) -> list[str]:
        if traced:
            return [PYTHON, str(O.ROOT / "perfbench" / "child.py"), *task.data]
        return [PYTHON, "-m", "zpcount.cli", *task.data]

    def run(self, task: Task, traced: bool):
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(task, traced), cwd=O.ROOT, env=cli_menu.child_env(),
                              capture_output=True, timeout=cli_menu.TIMEOUT_S)
        wall = time.perf_counter() - t0
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "wall": wall}

    def digest(self, result) -> str:
        try:
            return f"{result['exit']}:{cli_menu.digest(result['stdout'])}"
        except ValueError:
            return f"{result['exit']}:unparsable"

    def check(self, task: Task, result) -> bool:
        return self.digest(result) == f"{task.extra['exit']}:{task.extra['sha256']}"

    def determinism_check(self, task: Task) -> bool:
        """Run one command twice: stdout must be byte-identical apart from elapsed."""
        first, second = (self.run(task, False)["stdout"] for _ in range(2))
        return cli_menu.mask_elapsed(first) == cli_menu.mask_elapsed(second)


WORKLOADS = {w.name: w for w in (ExactLargeK(), PollardExhaustive(), SpectralCertify(),
                                 ExtremalCli())}
