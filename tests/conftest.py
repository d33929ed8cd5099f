import hypothesis
import numpy as np
import pytest

from fracspectra.psido_engine import SeparableTerm, Symbol, _sum_evaluator

hypothesis.settings.register_profile(
    "default",
    max_examples=40,
    derandomize=True,
    deadline=None,
)
hypothesis.settings.register_profile(
    "fast",
    max_examples=8,
    derandomize=True,
    deadline=None,
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def dyadic_shell_symbol():
    """Factory for a complex, x-dependent symbol of true type delta = 1.

    It sums exp(i 2^j x) * exp(-(log2|xi| - j)^2) over j = 0..6: spatial
    oscillations at dyadic frequencies, each under a log-scale Gaussian
    window on its own octave.  Its derivative bounds hold only with a full
    unit loss per spatial derivative, and its seven spatial factors are
    distinct and complex, so no catalog symbol can stand in for it.
    """

    def radial(j: int):
        def bump(r):
            r = np.asarray(r, dtype=float)
            lr = np.full(r.shape, -100.0)
            np.log2(r, out=lr, where=r > 0)
            return np.exp(-((lr - j) ** 2))

        return bump

    def spatial(j: int):
        return lambda x: np.exp(1j * 2.0**j * np.asarray(x, dtype=float)[..., 0])

    def build(order: float = 0.0, type_delta: float = 1.0) -> Symbol:
        terms = tuple(SeparableTerm(spatial(j), radial(j)) for j in range(7))
        return Symbol(
            name="dyadic_shells",
            evaluator=_sum_evaluator(terms),
            order=order,
            type_delta=type_delta,
            separable_terms=terms,
        )

    return build
