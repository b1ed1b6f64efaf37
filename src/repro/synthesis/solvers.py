"""Solver backends for the synthesis ILP.

Three interchangeable backends, each with its own guarantee:

- :class:`ScipyMilpSolver` — the default.  Exact in the objective: the
  false-positive weight is the ILP optimum whenever ``optimal`` is
  true.  The contract is an inclusion-minimal optimal cover (no atom
  can be dropped), not necessarily one with the fewest atoms.  It
  first tries :func:`prove_unique_optimum`, a pure-Python search that
  answers only when exactly one minimal optimal cover exists, which is
  then also the cover the HiGHS path would return.  Otherwise it
  solves with ``scipy.optimize.milp`` (HiGHS).  The paper uses Google
  OR-Tools; any exact 0-1 ILP solver yields the same optimum value.
- :class:`BranchAndBoundSolver` — exact, pure Python, and canonical:
  among the optimal selections it returns one with the fewest atoms.
  Used to cross-check the default backend.
- :class:`GreedySolver` — a classic weighted set-cover heuristic used
  as an ablation baseline (how much precision does optimality buy?).
  Its selection is inclusion-minimal but not optimal in general.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.metrics.registry import current_metrics
from repro.synthesis.ilp import IlpInstance, reduce_to_fixpoint

#: Work budget of :func:`prove_unique_optimum`, in marginal
#: false-positive evaluations.  A count, not seconds, so whether the
#: pure-Python search answers is a function of the instance alone.
#: Ibex ``riscv-mem`` instances of 8000-12000 cases need at most about
#: 3000; spending all of it costs about 30 ms on a CVA6 instance of 600
#: cases (2-vCPU machine, Python 3.11).
UNIQUE_OPTIMUM_WORK_LIMIT = 8_000


@dataclass
class SolverResult:
    """Outcome of one ILP solve."""

    selected_atom_ids: FrozenSet[int]
    false_positives: int
    solver_name: str
    optimal: bool
    #: Backend-specific statistics (nodes explored, iterations, ...).
    stats: Dict[str, float] = None

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = {}


class IlpSolver:
    """Backend interface."""

    name = "abstract"

    def solve(self, instance: IlpInstance) -> SolverResult:
        raise NotImplementedError

    @staticmethod
    def _verify(instance: IlpInstance, selection: FrozenSet[int]) -> None:
        if not instance.covers_all(selection):
            raise AssertionError("solver returned a non-covering selection")


def eliminate_redundant_atoms(
    instance: IlpInstance, selection: Sequence[int]
) -> List[int]:
    """Drop atoms whose coverage is subsumed by the rest.

    Loss-free: removing atoms never increases the number of false
    positives, and coverage is re-checked per removal.  The most
    FP-expensive redundancies are dropped first.
    """
    fp_cost = {atom_id: 0 for atom_id in selection}
    for atoms, weight in instance.fp_sets:
        for atom_id in atoms:
            if atom_id in fp_cost:
                fp_cost[atom_id] += weight
    coverage = {atom_id: 0 for atom_id in selection}
    for atoms in instance.cover_sets:
        for atom_id in atoms:
            if atom_id in coverage:
                coverage[atom_id] += 1
    kept = list(selection)
    # Try to drop FP-expensive atoms first, then narrow ones.
    for atom_id in sorted(selection, key=lambda a: (-fp_cost[a], coverage[a], a)):
        remainder = [other for other in kept if other != atom_id]
        if remainder and instance.covers_all(remainder):
            kept = remainder
    return kept


def _mask_weight(mask: int, weights: Sequence[int]) -> int:
    """Total weight of the FP sets whose bits are set in ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


@dataclass(frozen=True)
class OptimumProof:
    """Outcome of :func:`prove_unique_optimum`."""

    #: ``"unique"``: exactly one inclusion-minimal cover has the optimal
    #: FP weight.  ``"tie"``: at least two do.  ``"limit"``: the work
    #: budget ran out first.
    status: str
    #: The unique minimal optimal cover (``"unique"`` only).
    selection: Optional[FrozenSet[int]]
    #: Search nodes visited.
    nodes: int
    #: Marginal false-positive evaluations spent.
    work: int


class _WorkLimit(Exception):
    pass


def prove_unique_optimum(instance: IlpInstance) -> OptimumProof:
    """Decide whether ``instance`` has exactly one inclusion-minimal
    cover with the optimal false-positive weight, and find it.

    Runs on the residual of :func:`reduce_to_fixpoint`.  The search
    enumerates minimal covers without repeats: it branches on the
    uncovered constraint whose cheapest atom costs the most (fewest
    allowed atoms breaks ties), and the branch for its ``i``-th
    cheapest atom excludes the atoms before it.  A branch is cut when a
    selected atom loses its last private constraint (the selection can
    no longer become minimal), when some uncovered constraint has no
    allowed atom left, or by an admissible bound: the current weight
    plus, over the uncovered constraints, the largest of each one's
    cheapest marginal FP weight.  Branches that can only tie the
    incumbent are cut once two covers share its weight, so the search
    ends as soon as the optimum is proven and a tie at it is known.
    More than :data:`UNIQUE_OPTIMUM_WORK_LIMIT` evaluations end it with
    ``"limit"``.
    """
    forced, residual = reduce_to_fixpoint(instance)
    if not residual.cover_sets:
        return OptimumProof("unique", forced, nodes=0, work=0)

    cover_mask, fp_mask = residual.atom_masks()
    weights = [weight for _atoms, weight in residual.fp_sets]
    atom_bit = {
        atom_id: 1 << index
        for index, atom_id in enumerate(residual.candidate_atom_ids)
    }
    options = [sorted(atoms) for atoms in residual.cover_sets]
    full_mask = (1 << len(options)) - 1
    best = residual.total_fp_weight  # every cover weighs at most this
    found: List[Tuple[int, ...]] = []
    nodes = 0
    work = 0

    def cut(weight):
        return weight > best or (weight == best and len(found) > 1)

    def search(covered, fp_bits, weight, private, excluded):
        nonlocal best, found, nodes, work
        nodes += 1
        if cut(weight):
            return
        if covered == full_mask:
            selection = tuple(atom_id for atom_id, _mask in private)
            if weight < best:
                best, found = weight, [selection]
            else:
                found.append(selection)
            return
        marginal: Dict[int, int] = {}
        bound = 0
        pivot = pivot_key = None
        uncovered = full_mask & ~covered
        while uncovered:
            low = uncovered & -uncovered
            uncovered ^= low
            position = low.bit_length() - 1
            cheapest = None
            count = 0
            for atom_id in options[position]:
                if excluded & atom_bit[atom_id]:
                    continue
                cost = marginal.get(atom_id)
                if cost is None:
                    cost = _mask_weight(fp_mask[atom_id] & ~fp_bits, weights)
                    marginal[atom_id] = cost
                    work += 1
                count += 1
                if cheapest is None or cost < cheapest:
                    cheapest = cost
            if cheapest is None:
                return
            if cheapest > bound:
                bound = cheapest
                if cut(weight + bound):
                    return
            key = (-cheapest, count)
            if pivot_key is None or key < pivot_key:
                pivot, pivot_key = position, key
        if work > UNIQUE_OPTIMUM_WORK_LIMIT:
            raise _WorkLimit
        branches = sorted(
            (marginal[atom_id], atom_id)
            for atom_id in options[pivot]
            if not excluded & atom_bit[atom_id]
        )
        for cost, atom_id in branches:
            mask = cover_mask[atom_id]
            if all(own & ~mask for _atom, own in private):
                search(
                    covered | mask,
                    fp_bits | fp_mask[atom_id],
                    weight + cost,
                    tuple((atom, own & ~mask) for atom, own in private)
                    + ((atom_id, mask & ~covered),),
                    excluded,
                )
            excluded |= atom_bit[atom_id]

    try:
        search(0, 0, 0, (), 0)
    except _WorkLimit:
        return OptimumProof("limit", None, nodes=nodes, work=work)
    if len(found) > 1:
        return OptimumProof("tie", None, nodes=nodes, work=work)
    selection = forced | frozenset(found[0])
    return OptimumProof("unique", selection, nodes=nodes, work=work)


class ScipyMilpSolver(IlpSolver):
    """Exact backend: :func:`prove_unique_optimum`, then
    ``scipy.optimize.milp`` (HiGHS).

    The HiGHS path returns ``eliminate_redundant_atoms`` of an optimal
    solution: an inclusion-minimal cover of optimal FP weight.  When
    the pure-Python search proves that exactly one such cover exists,
    that cover is the HiGHS path's answer too, so it is returned
    without importing SciPy.  A tie or an exhausted work budget falls
    back to HiGHS.  HiGHS's answer is exactly optimal while the optimum
    weight is below about 10^4: its default relative gap of 10^-4 then
    cannot leave a unit of the integral objective open.  (The benchmark
    workloads' optima are 1000-4200.)  Above that, HiGHS may stop at a
    heavier cover, and a unique optimum proven here can differ from it.

    ``time_limit`` (seconds) bounds the branch-and-cut search; when it
    is hit, the best incumbent is returned with ``optimal=False`` (and
    the greedy solution is used if HiGHS has no incumbent yet), and the
    MIP gap is reported in ``stats["mip_gap"]``.  Dense instances —
    deep-pipeline cores whose mispredictions make whole suffixes
    distinguishable — can otherwise take hours to *prove* optimality
    long after finding the optimum.
    """

    name = "scipy-milp"

    def __init__(self, time_limit: Optional[float] = 120.0):
        self.time_limit = time_limit

    def solve(self, instance: IlpInstance) -> SolverResult:
        if not instance.cover_sets:
            return SolverResult(frozenset(), 0, self.name, optimal=True)
        metrics = current_metrics()
        proof = prove_unique_optimum(instance)
        if proof.status != "unique":
            metrics.counter("solver.fallbacks.%s" % proof.status).inc()
            return self._solve_highs(instance)
        metrics.counter("solver.fast_path").inc()
        selected = proof.selection
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=True,
            stats={
                # Sizes of the MILP formulation the fast path replaced.
                "variables": instance.atom_count + len(instance.fp_sets),
                "constraints": len(instance.cover_sets)
                + sum(len(atoms) for atoms, _weight in instance.fp_sets),
                "nodes": proof.nodes,
                "work": proof.work,
            },
        )

    def _solve_highs(self, instance: IlpInstance) -> SolverResult:
        """The MILP path alone: ``solve`` without the pure-Python attempt,
        for an instance with at least one coverage constraint."""
        import numpy as np
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        atom_ids = instance.candidate_atom_ids
        atom_index = {atom_id: index for index, atom_id in enumerate(atom_ids)}
        atom_count = len(atom_ids)
        fp_count = len(instance.fp_sets)
        variable_count = atom_count + fp_count

        # Objective: FP weights on the c_t variables only.  Selected
        # atoms carry no cost (an epsilon tie-break toward smaller
        # contracts makes the MILP hugely degenerate and slow); the
        # contract is minimized afterwards by loss-free redundancy
        # elimination.
        objective = np.zeros(variable_count)
        for index, (_atoms, weight) in enumerate(instance.fp_sets):
            objective[atom_count + index] = float(weight)

        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        lower: List[float] = []
        upper: List[float] = []
        row = 0
        for atoms in instance.cover_sets:
            for atom_id in atoms:
                rows.append(row)
                cols.append(atom_index[atom_id])
                data.append(1.0)
            lower.append(1.0)
            upper.append(float(len(atoms)))
            row += 1
        for fp_position, (atoms, _weight) in enumerate(instance.fp_sets):
            for atom_id in atoms:
                # s_A - c_t <= 0
                rows.append(row)
                cols.append(atom_index[atom_id])
                data.append(1.0)
                rows.append(row)
                cols.append(atom_count + fp_position)
                data.append(-1.0)
                lower.append(-1.0)
                upper.append(0.0)
                row += 1

        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(row, variable_count)
        )
        options = {}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        result = milp(
            c=objective,
            constraints=LinearConstraint(matrix, lower, upper),
            integrality=np.ones(variable_count),
            bounds=Bounds(0.0, 1.0),
            options=options,
        )
        optimal = bool(result.success)
        stats = {"variables": variable_count, "constraints": row}
        if result.status == 1:  # time/iteration limit
            current_metrics().counter("solver.limit_hits").inc()
            if result.mip_gap is not None:
                stats["mip_gap"] = float(result.mip_gap)
        if result.x is not None:
            raw_selection = [
                atom_ids[index]
                for index in range(atom_count)
                if result.x[index] > 0.5
            ]
        elif result.status == 1:  # time/iteration limit, no incumbent
            raw_selection = sorted(GreedySolver().solve(instance).selected_atom_ids)
            optimal = False
        else:  # pragma: no cover - defensive
            raise RuntimeError("MILP solve failed: %s" % result.message)
        selected = frozenset(eliminate_redundant_atoms(instance, raw_selection))
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=optimal,
            stats=stats,
        )


class GreedySolver(IlpSolver):
    """Weighted greedy set cover with redundancy elimination."""

    name = "greedy"

    def solve(self, instance: IlpInstance) -> SolverResult:
        uncovered = set(range(len(instance.cover_sets)))
        atom_covers: Dict[int, set] = {atom_id: set() for atom_id in instance.candidate_atom_ids}
        for position, atoms in enumerate(instance.cover_sets):
            for atom_id in atoms:
                atom_covers[atom_id].add(position)
        atom_fp: Dict[int, int] = {atom_id: 0 for atom_id in instance.candidate_atom_ids}
        for atoms, weight in instance.fp_sets:
            for atom_id in atoms:
                atom_fp[atom_id] += weight

        selection: List[int] = []
        iterations = 0
        while uncovered:
            iterations += 1
            best_atom = None
            best_key = None
            for atom_id, covers in atom_covers.items():
                gain = len(covers & uncovered)
                if gain == 0:
                    continue
                # Cheapest additional FP per newly covered constraint;
                # ties toward smaller atom id for determinism.
                key = (atom_fp[atom_id] / gain, -gain, atom_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_atom = atom_id
            selection.append(best_atom)
            uncovered -= atom_covers[best_atom]

        selection = eliminate_redundant_atoms(instance, selection)
        selected = frozenset(selection)
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=False,
            stats={"iterations": iterations},
        )


class BranchAndBoundSolver(IlpSolver):
    """Exact pure-Python branch & bound over the coverage structure.

    Search state is a bitmask of covered constraints plus a bitmask of
    touched FP sets; the greedy solution provides the initial upper
    bound, and a branch is pruned when its FP weight (an admissible
    lower bound — selecting more atoms never removes false positives)
    reaches the incumbent.
    """

    name = "branch-and-bound"

    def __init__(self, node_limit: int = 2_000_000):
        self.node_limit = node_limit

    def solve(self, instance: IlpInstance) -> SolverResult:
        cover_count = len(instance.cover_sets)
        if cover_count == 0:
            return SolverResult(frozenset(), 0, self.name, optimal=True)

        cover_mask, fp_mask = instance.atom_masks()
        fp_weights = [weight for _atoms, weight in instance.fp_sets]

        def weight_of(mask: int) -> int:
            return _mask_weight(mask, fp_weights)

        greedy = GreedySolver().solve(instance)
        best_selection = tuple(sorted(greedy.selected_atom_ids))
        best_key = (greedy.false_positives, len(best_selection))
        full_mask = (1 << cover_count) - 1

        # Order the atoms inside each constraint by FP cost (cheap
        # first) so good solutions are found early.
        constraint_options: List[List[int]] = [
            sorted(atoms, key=lambda a: (weight_of(fp_mask[a]), a))
            for atoms in instance.cover_sets
        ]

        nodes = [0]
        optimal = [True]

        def search(covered: int, fp_bits: int, selection: Tuple[int, ...]):
            nonlocal best_selection, best_key
            nodes[0] += 1
            if nodes[0] > self.node_limit:  # pragma: no cover - safety valve
                optimal[0] = False
                return
            current_fp = weight_of(fp_bits)
            key = (current_fp, len(selection))
            if key >= best_key:
                return
            if covered == full_mask:
                best_key = key
                best_selection = selection
                return
            # Branch on the uncovered constraint with fewest options.
            pivot = None
            pivot_options = None
            for position in range(cover_count):
                if covered & (1 << position):
                    continue
                options = constraint_options[position]
                if pivot_options is None or len(options) < len(pivot_options):
                    pivot, pivot_options = position, options
                    if len(options) == 1:
                        break
            for atom_id in pivot_options:
                search(
                    covered | cover_mask[atom_id],
                    fp_bits | fp_mask[atom_id],
                    selection + (atom_id,),
                )

        search(0, 0, ())
        selected = frozenset(best_selection)
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=optimal[0],
            stats={"nodes": nodes[0]},
        )
