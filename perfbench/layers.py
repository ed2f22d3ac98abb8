"""Which program functions a traced run hooks, and the per-layer metrics built
from the spans and counts they record.

Layers are the singosc modules, bottom to top: ``opalg.scalars`` and
``opalg.poly`` (coefficients and raw term dicts, r1^2/r2^2 division),
``opalg.diffop`` (composition), ``opalg.classical`` (Poisson brackets),
``opalg.generators``, ``opalg.verify`` (the named checks), and the spectrum
modules ``qalg``, ``radial`` and ``levels``.  ``cli`` is covered by set-up
time only, through its import.
"""

from __future__ import annotations

from dataclasses import dataclass

# (metric, unit, the end-to-end metric it should move, workloads where it should)
OPALG = ("q3-symbolic", "q3-sampled", "qp3-classical")
Q3 = ("q3-symbolic", "q3-sampled")
SWEEP = ("spectrum-sweep",)
ALL = OPALG + SWEEP


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str
    workloads: tuple[str, ...]


PER_LAYER = tuple(LayerMetric(*row) for row in (
    ("verify.casimir_s", "s", "wall_s", OPALG),
    ("verify.quadratic_s", "s", "wall_s", OPALG),
    ("verify.commute_s", "s", "wall_s", OPALG),
    ("verify.so_s", "s", "wall_s", OPALG),
    ("verify.classical_limit_s", "s", "wall_s", ("qp3-classical",)),
    ("verify.residual_terms", "count", "pass_ratio", ("q3-sampled",)),
    ("verify.self_s", "s", "wall_s", OPALG),
    ("diffop.compose_calls", "count", "wall_s", Q3),
    ("diffop.compose_s", "s", "wall_s", Q3),
    ("diffop.finalize_s", "s", "wall_s", Q3),
    ("diffop.peak_terms", "count", "peak_rss_mb", Q3),
    ("diffop.self_s", "s", "wall_s", Q3),
    ("poly.term_products", "count", "wall_s", OPALG),
    ("poly.mul_s", "s", "wall_s", OPALG),
    ("poly.divide_calls", "count", "wall_s", OPALG),
    ("poly.divide_hit_ratio", "ratio", "wall_s", OPALG),
    ("poly.divide_s", "s", "wall_s", OPALG),
    ("poly.coeff_bits_max", "bits", "wall_s", OPALG),
    ("poly.self_s", "s", "wall_s", OPALG),
    ("classical.bracket_calls", "count", "wall_s", ("qp3-classical",)),
    ("classical.bracket_s", "s", "wall_s", ("qp3-classical",)),
    ("classical.self_s", "s", "wall_s", ("qp3-classical",)),
    ("scalars.calls", "count", "wall_s", OPALG),
    ("scalars.s", "s", "wall_s", OPALG),
    ("generators.build_s", "s", "setup_s", OPALG),
    ("qalg.solve_calls", "count", "wall_s", SWEEP),
    ("qalg.solve_s", "s", "wall_s", SWEEP),
    ("qalg.inexact_share", "ratio", "wall_s", SWEEP),
    ("radial.fd_calls", "count", "wall_s", SWEEP),
    ("radial.fd_s", "s", "wall_s", SWEEP),
    ("radial.closed_form_s", "s", "wall_s", SWEEP),
    ("levels.enumerate_s", "s", "wall_s", SWEEP),
    ("levels.levels", "count", "wall_s", SWEEP),
    ("trace.overhead", "ratio", "wall_s", ALL),
))

# Counts that must repeat exactly for a given seed; later changes may rest a
# count claim on them.
EXACT_COUNTS = ("poly.term_products", "poly.divide_calls", "diffop.compose_calls",
                "classical.bracket_calls", "qalg.solve_calls", "radial.fd_calls")

_SCALAR_METHODS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__pow__", "substitute")

_CHECK_FAMILIES = (
    ("casimir", ("casimir[", "poisson-casimir[")),
    ("quadratic", ("quadratic[", "poisson-quadratic[")),
    ("commute", ("commute[", "central[", "poisson[", "poisson-central[")),
    ("so", ("so-rotations[", "poisson-so[")),
    ("classical_limit", ("classical-limit[",)),
)


def check_family(name: str) -> str:
    """The verify.* metric a check's time goes to; unknown names fail loudly."""
    for family, prefixes in _CHECK_FAMILIES:
        if name.startswith(prefixes):
            return family
    raise ValueError(f"check {name!r} belongs to no verify metric")


def install_hooks(tracer) -> None:
    """Register every hook on ``tracer``; they take effect inside ``with tracer``."""
    from singosc import levels, qalg, radial
    from singosc.opalg import classical, diffop, generators, poly, scalars

    def term_products(args):
        _, a, b, scale = args
        if a and b and scale:
            tracer.count("poly.term_products", len(a) * len(b))

    def divide_hit(args, quotient):
        if quotient is not None:
            tracer.count("poly.divide_hits")

    def peak_terms(args):
        acc = args[1]
        tracer.peak("diffop.peak_terms",
                    sum(len(raw) for buckets in acc.values() for raw in buckets.values()))

    def op_bits(args, op):
        for value in op.terms.values():
            _coeff_bits(tracer, value.num)

    def phase_bits(args, fn):
        _coeff_bits(tracer, fn.value.num)

    def inexact(args, solutions):
        tracer.count("qalg.solutions", len(solutions))
        tracer.count("qalg.inexact", sum(1 for s in solutions if not s.exact))

    def level_count(args, table):
        tracer.count("levels.levels", len(table.levels))

    tracer.hook(poly, "_raw_mul_into", "poly.mul", before=term_products)
    tracer.hook(poly, "_try_divide", "poly.divide", after=divide_hit)
    tracer.hook(diffop, "_compose_into", "diffop.compose")
    tracer.hook(diffop, "_finalize", "diffop.finalize", before=peak_terms, after=op_bits)
    tracer.hook(classical, "poisson_bracket", "classical.bracket", after=phase_bits)
    for method in _SCALAR_METHODS:
        tracer.hook(scalars.ParamScalar, method, "scalars.op")
    tracer.hook(generators, "build_quantum", "generators.build")
    tracer.hook(generators, "build_classical", "generators.build")
    tracer.hook(qalg, "solve_unirreps", "qalg.solve", after=inexact)
    tracer.hook(radial, "fd_eigenvalues", "radial.fd")
    tracer.hook(radial, "closed_form", "radial.closed_form")
    tracer.hook(levels, "enumerate_levels", "levels.enumerate", after=level_count)


def _coeff_bits(tracer, num: dict) -> None:
    bits = 0
    for coeff in num.values():
        bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    tracer.peak("poly.coeff_bits_max", bits)


def layer_metrics(tracer, reports: list, overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric, from one traced body and its verify reports.

    A layer the workload does not reach reads 0."""
    out: dict[str, float] = {}
    families = {family: 0.0 for family, _ in _CHECK_FAMILIES}
    residual = 0
    for report in reports:
        for result in report.results:
            families[check_family(result.name)] += result.wall_time
            residual += result.residual_terms
    for family, seconds in families.items():
        out[f"verify.{family}_s"] = seconds
    out["verify.residual_terms"] = residual

    counts, maxima = tracer.counts, tracer.maxima
    selfs = tracer.self_times()
    for layer in ("verify", "diffop", "poly", "classical"):
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)

    out["diffop.compose_calls"] = tracer.calls("diffop.compose")
    out["diffop.compose_s"] = tracer.busy("diffop.compose")
    out["diffop.finalize_s"] = tracer.busy("diffop.finalize")
    out["diffop.peak_terms"] = maxima.get("diffop.peak_terms", 0)

    divides = tracer.calls("poly.divide")
    out["poly.term_products"] = counts["poly.term_products"]
    out["poly.mul_s"] = tracer.busy("poly.mul")
    out["poly.divide_calls"] = divides
    out["poly.divide_hit_ratio"] = counts["poly.divide_hits"] / divides if divides else 0.0
    out["poly.divide_s"] = tracer.busy("poly.divide")
    out["poly.coeff_bits_max"] = maxima.get("poly.coeff_bits_max", 0)

    out["classical.bracket_calls"] = tracer.calls("classical.bracket")
    out["classical.bracket_s"] = tracer.busy("classical.bracket")
    out["scalars.calls"] = tracer.calls("scalars.op")
    out["scalars.s"] = tracer.busy("scalars.op")
    out["generators.build_s"] = tracer.busy("generators.build")

    solutions = counts["qalg.solutions"]
    out["qalg.solve_calls"] = tracer.calls("qalg.solve")
    out["qalg.solve_s"] = tracer.busy("qalg.solve")
    out["qalg.inexact_share"] = counts["qalg.inexact"] / solutions if solutions else 0.0
    out["radial.fd_calls"] = tracer.calls("radial.fd")
    out["radial.fd_s"] = tracer.busy("radial.fd")
    out["radial.closed_form_s"] = tracer.busy("radial.closed_form")
    out["levels.enumerate_s"] = tracer.busy("levels.enumerate")
    out["levels.levels"] = counts["levels.levels"]
    out["trace.overhead"] = overhead
    mismatch = {m.name for m in PER_LAYER} ^ set(out)
    if mismatch:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {mismatch}")
    return out
