"""The catalog: table schemas plus AE key metadata (Section 4.3).

The paper stores key metadata in new system tables so "the database is the
single source of truth" — CMK and CEK metadata replicate and back up with
the data. We mirror that: :class:`Catalog` owns the CMK/CEK system tables
alongside table schemas, and derives each column's ``enclave_enabled`` flag
from its CEK's CMK, exactly the chain the DDL in Figure 1 establishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.aead import ALGORITHM_NAME, EncryptionScheme
from repro.errors import BindError, SqlError
from repro.keys.cek import ColumnEncryptionKey
from repro.keys.cmk import ColumnMasterKey
from repro.obs.latchprof import TimedLatch
from repro.sqlengine.types import ColumnType, EncryptionInfo, SqlType


@dataclass
class ColumnSchema:
    """One column: name, full type (with encryption attribute), nullability."""

    name: str
    column_type: ColumnType
    nullable: bool = True

    @property
    def is_encrypted(self) -> bool:
        return self.column_type.is_encrypted


@dataclass
class IndexSchema:
    """Metadata for one index."""

    name: str
    table_name: str
    column_names: tuple[str, ...]
    unique: bool = False
    clustered: bool = False
    # Encrypted indexes can be invalidated during recovery (Section 4.5).
    valid: bool = True

    @property
    def key_column(self) -> str:
        return self.column_names[0]


@dataclass
class TableSchema:
    """One table: ordered columns, primary key, index list."""

    name: str
    columns: list[ColumnSchema]
    primary_key: tuple[str, ...] = ()
    indexes: dict[str, IndexSchema] = field(default_factory=dict)

    def column(self, name: str) -> ColumnSchema:
        for col in self.columns:
            if col.name.lower() == name.lower():
                return col
        raise BindError(f"table {self.name!r} has no column {name!r}")

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name.lower() == name.lower():
                return i
        raise BindError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass
class ColumnRotationState:
    """Mid-rotation metadata for one column (the mixed-version window).

    While a rotation is active, rows at or below ``watermark`` (heap scan
    order position) are under ``new_cek``; rows above are under
    ``old_cek``. The driver cannot see scan positions, so it resolves the
    version per cell by MAC probe; the engine uses the watermark only to
    resume after a crash.
    """

    rotation_id: str
    table: str
    column: str
    old_cek: str
    new_cek: str
    watermark: int = -1   # last re-encrypted batch's final row ordinal
    #: "rotate" re-encrypts old_cek → new_cek; "encrypt" is the initial
    #: encryption of a plaintext column (old_cek is empty).
    kind: str = "rotate"
    #: rows the lifecycle job has re-encrypted so far (progress telemetry)
    rows_rotated: int = 0


class Catalog:
    """All metadata: tables, indexes, and the CMK/CEK system tables."""

    def __init__(self) -> None:
        self._tables: dict[str, TableSchema] = {}
        self._cmks: dict[str, ColumnMasterKey] = {}
        self._ceks: dict[str, ColumnEncryptionKey] = {}
        #: CEK name → version, bumped on each completed rotation. Version 1
        #: is implicit for keys never rotated (absent from the dict).
        self._cek_versions: dict[str, int] = {}
        #: rotation_id → in-flight column rotation (the mixed-version map)
        self._rotations: dict[str, ColumnRotationState] = {}
        # Concurrent sessions read the catalog on every bind; DDL mutates
        # it. One reentrant latch keeps lookups consistent with drops.
        self._latch = TimedLatch("repro.sqlengine.catalog.Catalog._latch")

    # -- tables ----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        with self._latch:
            key = schema.name.lower()
            if key in self._tables:
                raise SqlError(f"table {schema.name!r} already exists")
            self._tables[key] = schema

    def drop_table(self, name: str) -> None:
        with self._latch:
            self._require_table(name)
            del self._tables[name.lower()]

    def table(self, name: str) -> TableSchema:
        with self._latch:
            return self._require_table(name)

    def has_table(self, name: str) -> bool:
        with self._latch:
            return name.lower() in self._tables

    def tables(self) -> list[TableSchema]:
        with self._latch:
            return list(self._tables.values())

    def _require_table(self, name: str) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise BindError(f"unknown table {name!r}") from None

    # -- key metadata (the new system tables of Section 4.3) --------------------

    def create_cmk(self, cmk: ColumnMasterKey) -> None:
        with self._latch:
            if cmk.name in self._cmks:
                raise SqlError(f"column master key {cmk.name!r} already exists")
            self._cmks[cmk.name] = cmk

    def create_cek(self, cek: ColumnEncryptionKey) -> None:
        with self._latch:
            if cek.name in self._ceks:
                raise SqlError(f"column encryption key {cek.name!r} already exists")
            for cmk_name in cek.cmk_names():
                if cmk_name not in self._cmks:
                    raise BindError(f"CEK {cek.name!r} references unknown CMK {cmk_name!r}")
            self._ceks[cek.name] = cek

    def cmk(self, name: str) -> ColumnMasterKey:
        with self._latch:
            try:
                return self._cmks[name]
            except KeyError:
                raise BindError(f"unknown column master key {name!r}") from None

    def cek(self, name: str) -> ColumnEncryptionKey:
        with self._latch:
            try:
                return self._ceks[name]
            except KeyError:
                raise BindError(f"unknown column encryption key {name!r}") from None

    def cmks(self) -> list[ColumnMasterKey]:
        with self._latch:
            return list(self._cmks.values())

    def ceks(self) -> list[ColumnEncryptionKey]:
        with self._latch:
            return list(self._ceks.values())

    def alter_cek_add_value(self, cek_name: str, value) -> None:
        """ALTER COLUMN ENCRYPTION KEY ... ADD VALUE: start a CMK rotation."""
        with self._latch:
            cek = self.cek(cek_name)
            if value.column_master_key_name not in self._cmks:
                raise BindError(
                    f"CEK {cek_name!r} new value references unknown CMK "
                    f"{value.column_master_key_name!r}"
                )
            cek.add_encrypted_value(value)

    def alter_cek_drop_value(self, cek_name: str, cmk_name: str) -> None:
        """ALTER COLUMN ENCRYPTION KEY ... DROP VALUE: finish a CMK rotation."""
        with self._latch:
            self.cek(cek_name).drop_encrypted_value(cmk_name)

    # -- CEK versions and in-flight column rotations ------------------------

    def cek_version(self, cek_name: str) -> int:
        """The CEK's rotation version; 1 for keys never rotated."""
        with self._latch:
            self.cek(cek_name)  # existence check
            return self._cek_versions.get(cek_name, 1)

    def cek_versions(self) -> dict[str, int]:
        """All non-default CEK versions (for anchor registration)."""
        with self._latch:
            return dict(self._cek_versions)

    def set_column_encryption(
        self, table: str, column: str, encryption: EncryptionInfo | None
    ) -> None:
        """Repoint a column's encryption attribute (DDL / rotation flip).

        Idempotent; used by ALTER COLUMN and by lifecycle jobs flipping a
        column to its new CEK at ROTATE_BEGIN (and by recovery replaying
        that flip)."""
        with self._latch:
            schema = self.table(table)
            col = schema.column(column)
            col.column_type = ColumnType(col.column_type.sql_type, encryption)

    def ensure_cek_version(self, cek_name: str, version: int) -> int:
        """Raise the CEK's version to at least ``version`` (recovery replay).

        Never lowers it: the durable ROTATE_END carries the version that
        was bumped before the anchor witnessed it, so applying the maximum
        keeps the catalog at-or-ahead of the anchor."""
        with self._latch:
            current = self._cek_versions.get(cek_name, 1)
            if version > current:
                self._cek_versions[cek_name] = version
                current = version
            return current

    def begin_column_rotation(self, state: ColumnRotationState) -> None:
        with self._latch:
            if state.rotation_id in self._rotations:
                raise SqlError(f"rotation {state.rotation_id!r} already active")
            for other in self._rotations.values():
                if (
                    other.table.lower() == state.table.lower()
                    and other.column.lower() == state.column.lower()
                ):
                    raise SqlError(
                        f"column {state.table}.{state.column} already under rotation"
                    )
            if state.old_cek:
                self.cek(state.old_cek)
            self.cek(state.new_cek)
            self._rotations[state.rotation_id] = state

    def rotation(self, rotation_id: str) -> ColumnRotationState:
        with self._latch:
            try:
                return self._rotations[rotation_id]
            except KeyError:
                raise BindError(f"unknown rotation {rotation_id!r}") from None

    def active_rotations(self) -> list[ColumnRotationState]:
        with self._latch:
            return list(self._rotations.values())

    def column_rotation(self, table: str, column: str) -> ColumnRotationState | None:
        """The in-flight rotation covering a column, if any."""
        with self._latch:
            for state in self._rotations.values():
                if (
                    state.table.lower() == table.lower()
                    and state.column.lower() == column.lower()
                ):
                    return state
            return None

    def advance_rotation(self, rotation_id: str, watermark: int) -> None:
        with self._latch:
            self.rotation(rotation_id).watermark = watermark

    def finish_column_rotation(self, rotation_id: str) -> None:
        with self._latch:
            state = self._rotations.pop(rotation_id, None)
            if state is None:
                raise BindError(f"unknown rotation {rotation_id!r}")

    # -- adversary hooks (the system tables live on the host's disk) -------

    def snapshot_ceks(self) -> dict[str, ColumnEncryptionKey]:
        """Copy the CEK system table — the adversary taking a backup."""
        with self._latch:
            return dict(self._ceks)

    def restore_ceks(self, ceks: dict[str, ColumnEncryptionKey]) -> None:
        """Swap old CEK metadata back in — a pre-rotation backup restore.

        The encrypted key values are ciphertext under CMKs, so the stale
        versions still verify; only a freshness anchor over the durable
        state that *references* them can tell they are old."""
        with self._latch:
            self._ceks = dict(ceks)

    def snapshot_cek_versions(self) -> dict[str, int]:
        """Copy the CEK version table — part of the adversary's backup."""
        with self._latch:
            return dict(self._cek_versions)

    def restore_cek_versions(self, versions: dict[str, int]) -> None:
        """Swap pre-rotation CEK versions back in (rollback attack)."""
        with self._latch:
            self._cek_versions = dict(versions)

    def snapshot_column_encryption(
        self,
    ) -> dict[tuple[str, str], EncryptionInfo | None]:
        """Copy every column's encryption attribute — the schema part of
        the adversary's backup (a rotation's metadata flip lives here)."""
        with self._latch:
            return {
                (schema.name.lower(), col.name.lower()): col.column_type.encryption
                for schema in self._tables.values()
                for col in schema.columns
            }

    def restore_column_encryption(
        self, attributes: dict[tuple[str, str], EncryptionInfo | None]
    ) -> None:
        """Swap pre-rotation column attributes back in. Columns of tables
        created after the backup keep their current attribute (the data
        pages backing them are gone after the disk restore anyway)."""
        with self._latch:
            for schema in self._tables.values():
                for col in schema.columns:
                    key = (schema.name.lower(), col.name.lower())
                    if key in attributes:
                        col.column_type = ColumnType(
                            col.column_type.sql_type, attributes[key]
                        )

    def cek_enclave_enabled(self, cek_name: str) -> bool:
        """A CEK is enclave-enabled iff (some of) its CMK(s) allow it.

        During a CMK rotation a CEK may be under two CMKs; it is treated
        as enclave-enabled only if *all* its CMKs permit enclave use — the
        conservative reading of the client's authorization.
        """
        cek = self.cek(cek_name)
        return all(
            self.cmk(cmk_name).allow_enclave_computations for cmk_name in cek.cmk_names()
        )

    def encryption_info(
        self, cek_name: str, scheme: EncryptionScheme, algorithm: str = ALGORITHM_NAME
    ) -> EncryptionInfo:
        """Build a column's EncryptionInfo, deriving the enclave flag."""
        if algorithm != ALGORITHM_NAME:
            raise SqlError(f"unsupported cell encryption algorithm {algorithm!r}")
        self.cek(cek_name)  # existence check
        return EncryptionInfo(
            scheme=scheme,
            cek_name=cek_name,
            enclave_enabled=self.cek_enclave_enabled(cek_name),
        )


def plain_column(name: str, base: str, length: int | None = None, nullable: bool = True) -> ColumnSchema:
    """Convenience constructor for an unencrypted column."""
    return ColumnSchema(name=name, column_type=ColumnType(SqlType(base, length)), nullable=nullable)
