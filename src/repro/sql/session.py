"""SQL sessions: catalogs of tables and query execution on a HAMR engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.core import CollectionSource, HamrEngine
from repro.core.sources import DataSource
from repro.sql.ast import Query, SQLError
from repro.sql.compiler import RESULT_FLOWLET, compile_query, order_and_limit
from repro.sql.parser import parse


@dataclass
class QueryResult:
    """Rows plus execution metadata."""

    names: list[str]
    rows: list[dict]
    makespan: float
    query: Query

    def column(self, name: str) -> list[Any]:
        if name not in self.names:
            raise SQLError(f"no output column {name!r}")
        return [row[name] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class Catalog:
    """Named tables available to queries.

    A table is a list of column→value dicts (every row must carry the
    same columns) or any :class:`DataSource` yielding ``(row_id, dict)``
    pairs — e.g. a DFS- or LocalFS-backed source for data at rest.
    """

    def __init__(self) -> None:
        self._tables: dict[str, DataSource] = {}
        self._columns: dict[str, tuple[str, ...]] = {}

    def register(
        self,
        name: str,
        rows: Iterable[dict],
        splits_per_worker: int = 2,
        columns: Optional[Iterable[str]] = None,
    ) -> None:
        """Register a row-list table.

        Columns are inferred from the first row; an **empty** table is
        legal only with an explicit declared schema (``columns=``) —
        a fleet table like ``stragglers`` can legitimately hold zero
        rows, but a schema-less empty registration is still an error
        because queries against it could never resolve a column.
        """
        rows = list(rows)
        if not name:
            raise SQLError("table needs a name")
        if columns is None:
            if not rows:
                raise SQLError(
                    f"table {name!r} has no rows (register at least one, "
                    "or declare columns= for an intentionally empty table)"
                )
            columns = tuple(rows[0].keys())
        else:
            columns = tuple(columns)
            if not columns:
                raise SQLError(f"table {name!r}: declared columns are empty")
        for i, row in enumerate(rows):
            if tuple(row.keys()) != columns:
                raise SQLError(f"table {name!r}: row {i} columns differ from row 0")
        self._tables[name] = CollectionSource(
            list(enumerate(rows)), splits_per_worker=splits_per_worker
        )
        self._columns[name] = columns

    def source(self, name: str) -> DataSource:
        try:
            return self._tables[name]
        except KeyError:
            raise SQLError(f"unknown table {name!r}") from None

    def columns(self, name: str) -> tuple[str, ...]:
        self.source(name)
        return self._columns[name]

    def tables(self) -> list[str]:
        return sorted(self._tables)


class SQLSession:
    """Parses, compiles and runs queries on a HAMR engine."""

    def __init__(self, engine: HamrEngine, catalog: Optional[Catalog] = None):
        self.engine = engine
        self.catalog = catalog if catalog is not None else Catalog()

    def run(self, sql: str) -> QueryResult:
        """Execute one SELECT; returns ordered, limited rows."""
        query = parse(sql)
        graph = self._compile(query)
        job = self.engine.run(graph)
        rows = [row for _key, row in job.output(RESULT_FLOWLET)]
        rows = order_and_limit(rows, query)
        return QueryResult(query.output_names(), rows, job.makespan, query)

    def _compile(self, query: Query):
        source = self.catalog.source(query.table)
        if query.join is None:
            return compile_query(query, source)
        return compile_query(
            query,
            source,
            join_source=self.catalog.source(query.join.right_table),
            left_columns=self.catalog.columns(query.table),
            right_columns=self.catalog.columns(query.join.right_table),
        )

    def explain(self, sql: str) -> str:
        """The compiled flowlet plan, one line per flowlet."""
        query = parse(sql)
        graph = self._compile(query)
        lines = [f"plan for: {sql.strip()}"]
        for flowlet in graph.topological_order():
            downstream = ", ".join(f.name for f in graph.downstream(flowlet))
            arrow = f" -> {downstream}" if downstream else "  (sink)"
            lines.append(f"  {flowlet.kind.value:15s} {flowlet.name}{arrow}")
        if query.order_by or query.limit is not None:
            lines.append("  driver          OrderAndLimit  (coordinator-side)")
        return "\n".join(lines)
