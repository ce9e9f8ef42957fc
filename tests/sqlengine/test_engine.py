"""Storage engine: DML, index maintenance, transactions."""

import sys
import threading

import pytest

from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.errors import ConstraintError, SqlError
from repro.sqlengine.catalog import Catalog, ColumnSchema, IndexSchema, TableSchema, plain_column
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.server import SqlServer
from repro.sqlengine.types import ColumnType, SqlType
from repro.sqlengine.values import serialize_value


@pytest.fixture()
def engine():
    eng = StorageEngine(lock_timeout_s=0.2)
    eng.create_table(
        TableSchema(
            name="t",
            columns=[plain_column("id", "INT", nullable=False), plain_column("v", "VARCHAR", 50)],
            primary_key=("id",),
        )
    )
    return eng


class TestDml:
    def test_insert_read(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.commit(txn)
        assert engine.read("t", rid) == (1, "a")

    def test_primary_key_enforced(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", (1, "a"))
        with pytest.raises(ConstraintError):
            engine.insert(txn, "t", (1, "b"))

    def test_pk_violation_leaves_no_orphan_row(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", (1, "a"))
        try:
            engine.insert(txn, "t", (1, "b"))
        except ConstraintError:
            pass
        engine.commit(txn)
        assert engine.table("t").heap.row_count() == 1

    def test_update_maintains_index(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.update(txn, "t", rid, (2, "a"))
        engine.commit(txn)
        pk = engine.table("t").indexes["pk_t"]
        assert pk.tree.search_eq((1,)) == []
        assert pk.tree.search_eq((2,)) == [rid]

    def test_delete_maintains_index(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.delete(txn, "t", rid)
        engine.commit(txn)
        assert engine.table("t").indexes["pk_t"].tree.search_eq((1,)) == []

    def test_arity_checked(self, engine):
        txn = engine.begin()
        with pytest.raises(SqlError):
            engine.insert(txn, "t", (1,))

    def test_not_null_enforced(self, engine):
        txn = engine.begin()
        with pytest.raises(ConstraintError):
            engine.insert(txn, "t", (None, "a"))

    def test_type_validated(self, engine):
        txn = engine.begin()
        with pytest.raises(SqlError):
            engine.insert(txn, "t", ("not-an-int", "a"))

    def test_varchar_length_enforced(self, engine):
        txn = engine.begin()
        with pytest.raises(SqlError):
            engine.insert(txn, "t", (1, "x" * 51))


class TestConcurrentUpdates:
    def test_non_key_updates_never_miss_the_row(self):
        """Concurrent ``UPDATE … WHERE <pk> = …`` increments of one row
        all land. An update that re-inserted the unchanged primary-key
        entry left a window in which another session's index probe found
        no row and updated nothing (a lost increment)."""
        n_threads, per_thread = 3, 200
        server = SqlServer(lock_timeout_s=5.0)
        setup = server.connect()
        setup.execute("CREATE TABLE R(id int PRIMARY KEY, v int)")
        setup.execute("INSERT INTO R (id, v) VALUES (1, 0)")
        rowcounts: list[int] = []

        def worker() -> None:
            session = server.connect()
            for __ in range(per_thread):
                result = session.execute("UPDATE R SET v = v + 1 WHERE id = 1")
                rowcounts.append(result.rowcount)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for __ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert rowcounts == [1] * (n_threads * per_thread)
        assert setup.execute("SELECT v FROM R WHERE id = 1").rows == [
            (n_threads * per_thread,)
        ]


class TestTransactions:
    def test_abort_restores_inserts(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", (1, "a"))
        engine.abort(txn)
        assert engine.table("t").heap.row_count() == 0
        assert engine.table("t").indexes["pk_t"].tree.search_eq((1,)) == []

    def test_abort_restores_deletes(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.commit(txn)
        txn2 = engine.begin()
        engine.delete(txn2, "t", rid)
        engine.abort(txn2)
        assert engine.read("t", rid) == (1, "a")
        assert engine.table("t").indexes["pk_t"].tree.search_eq((1,)) == [rid]

    def test_abort_restores_updates(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.commit(txn)
        txn2 = engine.begin()
        engine.update(txn2, "t", rid, (1, "modified"))
        engine.abort(txn2)
        assert engine.read("t", rid) == (1, "a")

    def test_commit_twice_rejected(self, engine):
        txn = engine.begin()
        engine.commit(txn)
        from repro.errors import TransactionError

        with pytest.raises(TransactionError):
            engine.commit(txn)

    def test_row_lock_conflict_times_out(self, engine):
        txn1 = engine.begin()
        rid = engine.insert(txn1, "t", (1, "a"))
        txn2 = engine.begin()
        from repro.errors import LockTimeoutError

        with pytest.raises(LockTimeoutError):
            engine.delete(txn2, "t", rid)

    def test_locks_released_on_commit(self, engine):
        txn1 = engine.begin()
        rid = engine.insert(txn1, "t", (1, "a"))
        engine.commit(txn1)
        txn2 = engine.begin()
        engine.delete(txn2, "t", rid)  # no timeout
        engine.commit(txn2)


class TestEncryptedColumns:
    @pytest.fixture()
    def enc_engine(self, enclave, cek_material, enclave_cmk, enclave_cek):
        catalog = Catalog()
        catalog.create_cmk(enclave_cmk)
        catalog.create_cek(enclave_cek)
        enc = catalog.encryption_info("TestCEK", EncryptionScheme.RANDOMIZED)
        eng = StorageEngine(catalog=catalog, enclave=enclave, lock_timeout_s=0.2)
        eng.create_table(
            TableSchema(
                name="e",
                columns=[
                    plain_column("id", "INT", nullable=False),
                    ColumnSchema("secret", ColumnType(SqlType("INT"), enc)),
                ],
                primary_key=("id",),
            )
        )
        enclave.sqlos.install_key("TestCEK", cek_material)
        return eng

    def _cell(self, cek_material, v):
        return Ciphertext(
            CellCipher(cek_material).encrypt(serialize_value(v), EncryptionScheme.RANDOMIZED)
        )

    def test_plaintext_into_encrypted_column_rejected(self, enc_engine):
        txn = enc_engine.begin()
        with pytest.raises(SqlError, match="encrypted"):
            enc_engine.insert(txn, "e", (1, 42))

    def test_ciphertext_into_plaintext_column_rejected(self, enc_engine, cek_material):
        txn = enc_engine.begin()
        with pytest.raises(SqlError, match="plaintext"):
            enc_engine.insert(txn, "e", (self._cell(cek_material, 1), self._cell(cek_material, 2)))

    def test_null_allowed_in_encrypted_column(self, enc_engine):
        txn = enc_engine.begin()
        enc_engine.insert(txn, "e", (1, None))
        enc_engine.commit(txn)

    def test_range_index_on_encrypted(self, enc_engine, cek_material):
        txn = enc_engine.begin()
        for i in range(10):
            enc_engine.insert(txn, "e", (i, self._cell(cek_material, i * 5)))
        enc_engine.commit(txn)
        ix = enc_engine.create_index(
            IndexSchema(name="ix_secret", table_name="e", column_names=("secret",))
        )
        got = [r for __, r in ix.tree.range_scan(
            (self._cell(cek_material, 10),), (self._cell(cek_material, 30),)
        )]
        assert len(got) == 5  # 10, 15, 20, 25, 30

    def test_clustered_index_on_encrypted_rejected(self, enc_engine):
        with pytest.raises(SqlError, match="clustered"):
            enc_engine.create_index(
                IndexSchema(
                    name="cl", table_name="e", column_names=("secret",), clustered=True
                )
            )

    def test_rnd_index_without_enclave_enabled_key_rejected(self, plain_cmk, plain_cek):
        catalog = Catalog()
        catalog.create_cmk(plain_cmk)
        catalog.create_cek(plain_cek)
        enc = catalog.encryption_info("PlainCEK", EncryptionScheme.RANDOMIZED)
        eng = StorageEngine(catalog=catalog)
        eng.create_table(
            TableSchema(
                name="x",
                columns=[ColumnSchema("v", ColumnType(SqlType("INT"), enc))],
            )
        )
        with pytest.raises(SqlError):
            eng.create_index(IndexSchema(name="ix", table_name="x", column_names=("v",)))
