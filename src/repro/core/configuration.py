"""Configurations and configuration sets (TDM schedules).

A **configuration** is a conflict-free set of connections -- a legal
network state.  A **configuration set** ``{C_1 ... C_K}`` covering a
request set is realised by TDM with multiplexing degree K: the network
cycles through the K states, one per time slot, and every request owns
a slot.  The scheduler's objective is to minimise K.

:class:`ConfigurationSet` is the common result type of every scheduler
and the input of the code generator and the compiled-communication
simulator.  ``validate()`` checks the two defining properties
(conflict-freeness of every configuration; exact coverage of the routed
request set) and is exercised by every scheduler test, so a scheduling
bug cannot silently produce an illegal schedule.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.core.paths import Connection


class ScheduleValidationError(AssertionError):
    """A configuration set violates conflict-freeness or coverage."""


class Configuration:
    """A conflict-free set of connections (one TDM network state)."""

    __slots__ = ("connections", "_used_links")

    def __init__(self, connections: Iterable[Connection] = ()) -> None:
        self.connections: list[Connection] = []
        self._used_links: set[int] | None = set()
        for c in connections:
            self.add(c)

    @classmethod
    def _trusted(cls, connections: list[Connection]) -> "Configuration":
        """Construct without per-add conflict checks.

        Reserved for the bitmask kernel, which has already proven the
        members link-disjoint (``validate()`` re-checks the result from
        scratch, so a kernel bug cannot silently pass the suite), and
        for the schedule loader, which checks every slot before it
        builds one (:func:`repro.compiler.serialize.check_schedule`).
        The link-set union is deferred (see :attr:`used_links`) -- most
        trusted configurations are only ever counted, not queried.
        """
        cfg = cls.__new__(cls)
        cfg.connections = connections
        cfg._used_links = None
        return cfg

    @property
    def used_links(self) -> set[int]:
        """The union of the members' link sets (built on first use)."""
        ul = self._used_links
        if ul is None:
            ul = self._used_links = set()
            for c in self.connections:
                ul |= c.link_set
        return ul

    @used_links.setter
    def used_links(self, value: set[int]) -> None:
        self._used_links = value

    def fits(self, connection: Connection) -> bool:
        """True iff ``connection`` conflicts with nothing already here."""
        return self.used_links.isdisjoint(connection.link_set)

    def add(self, connection: Connection) -> None:
        """Add a connection; raises if it conflicts with a member."""
        if not self.fits(connection):
            clash = self.used_links & connection.link_set
            raise ScheduleValidationError(
                f"connection {connection} conflicts on links {sorted(clash)}"
            )
        self.connections.append(connection)
        self.used_links |= connection.link_set

    def remove(self, connection: Connection) -> None:
        """Remove a member connection (used by local-search repacking)."""
        self.connections.remove(connection)
        self.used_links -= connection.link_set

    def clone(self) -> "Configuration":
        """A shallow copy sharing the member :class:`Connection` objects.

        Connections are immutable for scheduling purposes (their link
        sets never change), so sharing them is safe; the copy gets its
        own member list and link-set bookkeeping, making in-place
        mutation of one copy invisible to the other.
        """
        cfg = Configuration.__new__(Configuration)
        cfg.connections = list(self.connections)
        cfg._used_links = None if self._used_links is None else set(self._used_links)
        return cfg

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self) -> Iterator[Connection]:
        return iter(self.connections)

    @property
    def total_links_used(self) -> int:
        """Number of distinct links lit in this state (utilisation)."""
        return len(self.used_links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Configuration n={len(self)} links={self.total_links_used}>"


class ConfigurationSet(Sequence[Configuration]):
    """An ordered list of configurations = a TDM schedule.

    The position of a configuration is its **time slot**; the length of
    the list is the **multiplexing degree** K.
    """

    def __init__(self, configurations: Iterable[Configuration], *, scheduler: str = "") -> None:
        self._configs = list(configurations)
        #: name of the scheduler that produced this set (for reports).
        self.scheduler = scheduler

    # -- sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._configs)

    def __getitem__(self, i):  # type: ignore[override]
        return self._configs[i]

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self._configs)

    # -- schedule views -----------------------------------------------------
    @property
    def degree(self) -> int:
        """The multiplexing degree K -- the quantity Tables 1-3 compare."""
        return len(self._configs)

    def slot_map(self) -> dict[int, int]:
        """Map connection index -> assigned time slot.

        Raises :class:`ScheduleValidationError` if a connection index
        appears in more than one slot (or twice in one): silently
        keeping the last slot would mask exactly the double-scheduling
        bugs an incremental amend path can introduce.
        """
        mapping: dict[int, int] = {}
        for slot, cfg in enumerate(self._configs):
            for c in cfg:
                if c.index in mapping:
                    raise ScheduleValidationError(
                        f"connection index {c.index} scheduled in both "
                        f"slot {mapping[c.index]} and slot {slot}"
                    )
                mapping[c.index] = slot
        return mapping

    def all_connections(self) -> list[Connection]:
        """All scheduled connections, in slot order."""
        return [c for cfg in self._configs for c in cfg]

    def clone(self) -> "ConfigurationSet":
        """A copy whose configurations are independent of this set's.

        Every :class:`Configuration` is cloned (member lists copied,
        connections shared -- they are immutable for scheduling
        purposes), so in-place improvers like ``repack`` and
        ``amend_schedule`` can mutate the copy without corrupting a
        cache-held or caller-held original.  Cost is O(total
        connections) pointer copies, no routing or conflict re-checks.
        """
        return ConfigurationSet(
            (cfg.clone() for cfg in self._configs), scheduler=self.scheduler
        )

    # -- validation -----------------------------------------------------
    def validate(self, connections: Sequence[Connection]) -> None:
        """Assert the two defining properties against the routed set.

        1. every configuration is internally conflict-free (re-checked
           from scratch, not trusting incremental bookkeeping);
        2. every connection appears in exactly one configuration and no
           foreign connection appears.

        Raises :class:`ScheduleValidationError` on any violation.
        """
        for slot, cfg in enumerate(self._configs):
            seen: set[int] = set()
            for c in cfg:
                overlap = seen & c.link_set
                if overlap:
                    raise ScheduleValidationError(
                        f"slot {slot}: {c} reuses links {sorted(overlap)}"
                    )
                seen |= c.link_set
        scheduled = [c.index for cfg in self._configs for c in cfg]
        if len(scheduled) != len(set(scheduled)):
            raise ScheduleValidationError("a connection is scheduled twice")
        expected = {c.index for c in connections}
        got = set(scheduled)
        if got != expected:
            missing = sorted(expected - got)[:10]
            extra = sorted(got - expected)[:10]
            raise ScheduleValidationError(
                f"coverage mismatch: missing={missing} extra={extra}"
            )

    def utilisation(self, num_links: int) -> float:
        """Fraction of link-slots actually lit, over the whole frame."""
        lit = sum(cfg.total_links_used for cfg in self._configs)
        return lit / (num_links * max(self.degree, 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" by {self.scheduler}" if self.scheduler else ""
        return f"<ConfigurationSet K={self.degree}{tag}>"
