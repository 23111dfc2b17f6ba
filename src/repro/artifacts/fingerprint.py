"""Canonical structural fingerprints for cross-instance artifact reuse.

An artifact (kernel, template, plan, index map) may be shared between
two instances only if *everything* it bakes in is equal between them.
The lean commit paths push template-held variable objects, event names
and value labels straight into fixer state (assignments, step records,
phi ledgers), and ``EventKernel.value_index`` is label-addressed — so
the fingerprint is **content-addressed, not rename-insensitive**: it
covers event names, scope names, value labels, probability vectors and
the tabulated bad-outcome sets, in construction order.  Two instances
produced by the same generator with the same parameters fingerprint
identically; renaming a variable changes the fingerprint (a
rename-insensitive canonicalisation is future service-layer work).

Fingerprintability requires every event to carry a *bad-outcomes hint*
(events built via :meth:`BadEvent.from_bad_outcomes` /
:meth:`BadEvent.all_equal`, or loaded through :mod:`repro.lll.io`): the
hint is the complete predicate semantics in tabulated form.  An event
defined only by an opaque predicate closure cannot be compared for
equality without enumerating it, so instances containing one are
reported unfingerprintable (``None``) and every store tier skips them —
they keep the exact legacy per-object cache behaviour.

Instance keys are 16-byte BLAKE2b digests of canonical ``repr``
streams rather than the structure tuples themselves: at n = 10^6
events a per-event tuple would cost ~0.5 GB.  The scheme relies on
``repr`` faithfulness of names and value labels, the same assumption
the plan builders already make when they sort events by ``repr``.

The kernels tier is the one exception: a compiled kernel holds no
names, so it is keyed on the event's *shape* (:func:`kernel_shape_key`)
and shared by every event of that shape, within an instance and across
instances.
"""

from __future__ import annotations

from hashlib import blake2b
from operator import attrgetter, is_
from typing import Optional, Tuple

_UNSET = object()

#: ``_support(variable) -> (values, probabilities)``: everything a
#: compiled kernel reads from a :class:`DiscreteVariable`, read straight
#: from its slots at C speed (the shape key takes one per scope position
#: per event).
_support = attrgetter("_values", "_probabilities")
_values = attrgetter("_values")
_probabilities = attrgetter("_probabilities")

#: Digest width. 16 bytes = 128 bits: collision probability is
#: negligible at any realistic artifact count.
_DIGEST_SIZE = 16


def shape_structure(event) -> Optional[tuple]:
    """The canonical structure tuple of one event's shape, or ``None``.

    Per-variable supports and distributions plus the tabulated bad
    outcomes (sorted by ``repr``): the event without its names.
    ``None`` means the event's semantics are not tabulated (predicate
    closure without a bad-outcomes hint) and nothing derived from it
    may be shared across objects.
    """
    hint = event.bad_outcomes_hint
    if hint is None:
        return None
    return (
        tuple(
            (variable.values, variable.probabilities)
            for variable in event.variables
        ),
        tuple(sorted(map(repr, hint))),
    )


def event_structure(event) -> Optional[tuple]:
    """The canonical structure tuple of one event, or ``None``.

    Its name and scope names followed by the two parts of its
    :func:`shape_structure`; ``None`` for an untabulated event.
    """
    shape = shape_structure(event)
    if shape is None:
        return None
    return (event.name, event.scope_names) + shape


def digest_key(structure: tuple) -> bytes:
    """A fixed-width digest key for one canonical structure tuple."""
    return _digest_text(repr(structure))


def _digest_text(text: str) -> bytes:
    return blake2b(text.encode("utf-8"), digest_size=_DIGEST_SIZE).digest()


def _same_supports(variables, others) -> bool:
    """Whether two scopes hold the *identical* support and distribution
    tuples, position by position (identity never merges ``0`` with
    ``0.0`` or ``False``, so it implies equal ``repr``)."""
    return (
        len(variables) == len(others)
        and all(map(is_, map(_values, variables), map(_values, others)))
        and all(
            map(
                is_,
                map(_probabilities, variables),
                map(_probabilities, others),
            )
        )
    )


def kernel_shape_key(event) -> Optional[tuple]:
    """The kernels-tier key of one event: its shape, or ``None``.

    The shape is each scope position's ``(values, probabilities)`` plus
    the bad-outcomes hint -- exactly what
    :meth:`EventKernel.from_outcomes` reads -- so a hit returns a kernel
    equal to the one compilation would produce.  Names are left out (a
    kernel stores none), so every event of one shape shares one kernel.
    The key is a plain tuple, not a digest: the supports are shared
    tuples and the hint caches its hash, so building and hashing it is
    cheaper than a ``repr`` + BLAKE2b pass.
    """
    hint = event.bad_outcomes_hint
    if hint is None:
        return None
    return (tuple(map(_support, event.variables)), hint)


def instance_fingerprint(instance) -> Optional[bytes]:
    """The structural fingerprint of a whole instance, or ``None``.

    A digest over one :func:`digest_key` of :func:`event_structure` per
    event, in construction order (event order determines variable
    first-appearance order, hence every iteration order the plan
    builders and the template lowering see).  Nearly all of an event's
    cost is the ``repr`` of its shape, so when an event holds the
    identical hint and support tuples as the event before it -- as the
    events of a generated instance do -- the shape's ``repr`` is reused
    and only the names are rendered.  Identity, unlike equality, never
    merges ``0`` with ``0.0`` or ``False``.  Any other event (instances
    loaded through :mod:`repro.lll.io`, per-variable distributions)
    takes the plain one-pass digest after a few identity tests.  Cached
    on the instance — instances are immutable after construction, so
    the fingerprint never goes stale.
    """
    cached = getattr(instance, "_artifact_fingerprint", _UNSET)
    if cached is not _UNSET:
        return cached
    hasher = blake2b(digest_size=_DIGEST_SIZE)
    # The first event of the current run of identical shapes, and the
    # repr of that shape minus its "(" -- rendered on the first reuse,
    # so an event that starts a run costs what the one-pass digest does.
    first = None
    shape: Optional[str] = None
    fingerprint: Optional[bytes] = None
    for event in instance.events:
        hint = event.bad_outcomes_hint
        if hint is None:
            break
        if (
            first is not None
            and hint is first.bad_outcomes_hint
            and _same_supports(event.variables, first.variables)
        ):
            if shape is None:
                shape = repr(shape_structure(first))[1:]
            # == repr(event_structure(event)), without re-rendering the shape.
            head = repr((event.name, event.scope_names))
            text = f"{head[:-1]}, {shape}"
        else:
            first, shape = event, None
            text = repr(event_structure(event))
        hasher.update(_digest_text(text))
    else:
        fingerprint = hasher.digest()
    instance._artifact_fingerprint = fingerprint
    return fingerprint


def instance_key(instance, *parts) -> Optional[Tuple]:
    """A store key scoped to an instance shape, or ``None``.

    Convenience for the template/plan/indexing tiers: the instance
    fingerprint plus discriminating parts (kind, rank, artifact name).
    """
    fingerprint = instance_fingerprint(instance)
    if fingerprint is None:
        return None
    return (fingerprint,) + parts


def stack_key(kernels) -> Tuple:
    """The stacks-tier key: the interned fingerprints of the kernels.

    ``EventKernel.fingerprint()`` interns on kernel *content* within a
    process, so content-identical kernel sets — including kernels
    unpickled afresh in a worker for every chunk — map to the same key
    and share one stacked truth table.
    """
    return tuple(kernel.fingerprint() for kernel in kernels)
