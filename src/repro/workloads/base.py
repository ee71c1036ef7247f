"""Workload protocol and registry."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import WorkloadError
from ..isa.intrinsics import ScalarContext, VectorContext
from ..isa.trace import Trace

#: Input-generation seed used everywhere a caller does not pass one.
#: ``repro run/compare/sweep --seed N`` overrides it per invocation; the
#: seed is folded into cache keys and record fingerprints, so runs with
#: different seeds never share cached traces or results.
DEFAULT_SEED = 1234


class Workload:
    """One benchmark kernel (Table IV row).

    Subclasses define:

    * ``name`` / ``suite`` — identity (suite in {kernel, rodinia, rivec,
      genomics});
    * ``params`` — the scaled-down default problem size; ``tiny_params`` —
      an oracle-sized problem for bit-exact runs;
    * :meth:`make_inputs` — deterministic input generation;
    * :meth:`reference` — the pure-numpy gold model;
    * :meth:`kernel` — the vectorised kernel against the intrinsics API,
      returning the output arrays (read back from context buffers);
    * :meth:`scalar_trace` — the scalar version as block events.
    """

    name: str = ""
    suite: str = ""
    params: Dict[str, int] = {}
    tiny_params: Dict[str, int] = {}

    # -- to implement -----------------------------------------------------

    def make_inputs(self, params: Dict[str, int],
                    seed: int = DEFAULT_SEED) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def reference(self, inputs: Dict[str, np.ndarray],
                  params: Dict[str, int]) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def kernel(self, ctx, inputs: Dict[str, np.ndarray],
               params: Dict[str, int]) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def scalar_trace(self, params: Optional[Dict[str, int]] = None) -> Trace:
        raise NotImplementedError

    # -- provided ------------------------------------------------------------

    def resolve(self, params: Optional[Dict[str, int]]) -> Dict[str, int]:
        merged = dict(self.params)
        if params:
            merged.update(params)
        return merged

    def vector_trace(self, vlmax: int,
                     params: Optional[Dict[str, int]] = None,
                     verify: bool = True, seed: int = DEFAULT_SEED) -> Trace:
        """Build the vector trace for a machine with ``vlmax`` and verify
        the kernel's outputs against the numpy reference."""
        params = self.resolve(params)
        inputs = self.make_inputs(params, seed)
        ctx = VectorContext(vlmax, name=self.name)
        outputs = self.kernel(ctx, inputs, params)
        if verify:
            expected = self.reference(self.make_inputs(params, seed), params)
            for key, want in expected.items():
                got = outputs.get(key)
                if got is None or not np.array_equal(
                        np.asarray(got, dtype=np.int64),
                        np.asarray(want, dtype=np.int64)):
                    raise WorkloadError(
                        f"{self.name}: vector kernel output {key!r} does not "
                        "match the reference model")
        return ctx.finalize_trace()

    def run_bit_exact(self, engine, params: Optional[Dict[str, int]] = None,
                      seed: int = DEFAULT_SEED) -> Dict[str, np.ndarray]:
        """Run the kernel on a bit-exact engine (oracle-sized by default)."""
        params = dict(self.tiny_params) if params is None else params
        inputs = self.make_inputs(params, seed)
        return self.kernel(engine, inputs, params)

    # -- scalar-trace helper ------------------------------------------------------

    def _scalar_ctx(self) -> ScalarContext:
        return ScalarContext(name=self.name)


REGISTRY: Dict[str, Workload] = {}

#: Lowercase -> canonical workload-name map; rebuilt (rarely) when the
#: registry has grown since the map was last derived, so it is built once
#: after import-time registration rather than per lookup.
_CANONICAL: Dict[str, str] = {}


def canonical_workload(name: str) -> str:
    """Case-insensitive workload-name lookup (``K-Means`` → ``k-means``).

    Unknown names pass through unchanged so :func:`get_workload` can
    report the caller's spelling.
    """
    if len(_CANONICAL) != len(REGISTRY):
        _CANONICAL.clear()
        _CANONICAL.update({known.lower(): known for known in REGISTRY})
    return _CANONICAL.get(name.lower(), name)


def register(workload: Workload) -> Workload:
    if workload.name in REGISTRY:
        raise WorkloadError(f"duplicate workload {workload.name!r}")
    REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(REGISTRY)}") from None


def workload_names() -> list:
    return sorted(REGISTRY)


def tiny_overrides() -> Dict[str, Dict[str, int]]:
    """Per-workload test-sized parameter overrides — the mapping behind
    the CLI's ``--tiny`` flag."""
    return {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}
