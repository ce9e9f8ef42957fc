"""The socket server exposing one :class:`SqlServer` over the wire.

One accept-loop thread plus one handler thread per connection. Each
connection owns its sessions: a dropped socket aborts and closes every
session it opened (the usual connection-loss contract), so a client crash
never leaks session slots or row locks.

Every server-side exception is marshalled as an :class:`ErrorReply` with
the concrete type name — ``StaleRestoreError`` quarantine refusals,
``LockTimeoutError``, injected faults — so typed client handling works
identically to the in-process seam. Only wire-level failures (a peer
speaking garbage) terminate the connection.

The ``audit_hook`` is the shard harness's seam: an ``AdminAudit`` frame
runs it (e.g. TPC-C invariants + index-consistency checks over a local
plain connection) and returns the violation strings.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable

from repro.errors import FaultInjected, WireError
from repro.net import messages as msg
from repro.net.transport import FrameChannel, FrameTap
from repro.sqlengine.server import ServerSession, SqlServer

__all__ = ["WireServer"]


class WireServer:
    """Serve one :class:`SqlServer` on a TCP port."""

    def __init__(
        self,
        server: SqlServer,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "shard",
        shard_count: int = 1,
        audit_hook: Callable[[], list[str]] | None = None,
        tap: FrameTap | None = None,
    ):
        self.server = server
        self.name = name
        self.shard_count = shard_count
        self.audit_hook = audit_hook
        #: observes every serialized frame on every connection (adversary).
        self.tap = tap
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._channels_lock = threading.Lock()
        self._channels: set[FrameChannel] = set()

    # --------------------------------------------------------------- lifecycle

    def start(self) -> "WireServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"wire-accept-{self.name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and drop every live connection."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join below returns promptly.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        # Snapshot after the accept thread is gone, so a connection it
        # accepted during shutdown is closed too.
        with self._channels_lock:
            channels = list(self._channels)
        for channel in channels:
            channel.close()

    def __enter__(self) -> "WireServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ accept loop

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = FrameChannel(sock, tap=self.tap)
            with self._channels_lock:
                self._channels.add(channel)
            threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name=f"wire-conn-{self.name}",
                daemon=True,
            ).start()

    # ------------------------------------------------------------- connection

    def _serve_connection(self, channel: FrameChannel) -> None:
        sessions: dict[int, ServerSession] = {}
        try:
            hello = channel.recv_message()
            if not isinstance(hello, msg.Hello):
                return
            hgs = self.server.hgs
            channel.send_message(
                msg.HelloReply(
                    protocol_version=1,
                    server_name=self.name,
                    shard_count=self.shard_count,
                    hgs_public=None if hgs is None else hgs.signing_public_key,
                )
            )
            while True:
                request = channel.recv_message()
                if request is None or isinstance(request, msg.AdminShutdown):
                    if request is not None:
                        channel.send_message(msg.Ok())
                    if isinstance(request, msg.AdminShutdown):
                        threading.Thread(target=self.stop, daemon=True).start()
                    return
                try:
                    reply = self._dispatch(request, sessions)
                except WireError:
                    raise  # protocol violation: drop the connection
                except Exception as exc:  # marshalled to the client, typed
                    in_txn = None
                    if isinstance(request, msg.Execute):
                        session = sessions.get(request.session_id)
                        if session is not None:
                            in_txn = session.in_transaction
                    reply = msg.error_reply_for(exc, in_transaction=in_txn)
                channel.send_message(reply)
        except (ConnectionError, WireError, OSError, FaultInjected):
            pass  # peer vanished, spoke garbage, or an armed net.* fault
            # fired on our side of the socket: tear the connection down
        finally:
            for session in sessions.values():
                try:
                    session.close()
                except Exception:
                    pass  # a crashed engine may refuse the closing abort
            with self._channels_lock:
                self._channels.discard(channel)
            channel.close()

    # --------------------------------------------------------------- dispatch

    def _dispatch(self, request: object, sessions: dict[int, ServerSession]) -> object:
        server = self.server
        if isinstance(request, msg.Ping):
            return msg.Ok()
        if isinstance(request, msg.Describe):
            return msg.DescribeReply(
                result=server.describe_parameter_encryption(
                    request.query_text, request.client_dh_public
                )
            )
        if isinstance(request, msg.Attest):
            return msg.AttestReply(info=server.attest(request.client_dh_public))
        if isinstance(request, msg.CekFetch):
            return msg.CekFetchReply(metadata=server.fetch_cek_metadata(request.cek_name))
        if isinstance(request, msg.CekList):
            return msg.CekListReply(ceks=server.catalog.ceks())
        if isinstance(request, msg.TableInfo):
            return msg.TableInfoReply(schema=server.catalog.table(request.table_name))
        if isinstance(request, msg.ForwardPackage):
            server.forward_enclave_package(request.enclave_session_id, request.sealed)
            return msg.Ok()
        if isinstance(request, msg.SessionOpen):
            session = server.connect()
            sessions[session.session_id] = session
            return msg.SessionOpenReply(session_id=session.session_id)
        if isinstance(request, msg.SessionClose):
            session = sessions.pop(request.session_id, None)
            if session is not None:
                session.close()
            return msg.Ok()
        if isinstance(request, msg.Execute):
            session = self._session(sessions, request.session_id)
            result = session.execute(request.query_text, request.params)
            return msg.ExecuteReply(result=result, in_transaction=session.in_transaction)
        if isinstance(request, msg.TxnPrepare):
            self._session(sessions, request.session_id).prepare_transaction(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.TxnCommitPrepared):
            server.commit_prepared(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.TxnAbortPrepared):
            server.abort_prepared(request.gtid)
            return msg.Ok()
        if isinstance(request, msg.TxnIndoubt):
            return msg.TxnIndoubtReply(gtids=server.indoubt_gtids())
        if isinstance(request, msg.AdminAudit):
            violations = [] if self.audit_hook is None else list(self.audit_hook())
            return msg.AdminAuditReply(violations=violations)
        if isinstance(request, msg.AdminCrash):
            # All volatile state dies with the "process": every session this
            # server handed out is gone, on this connection and others.
            server.crash()
            sessions.clear()
            return msg.Ok()
        if isinstance(request, msg.AdminRecover):
            return msg.AdminRecoverReply(report=server.recover())
        if isinstance(request, msg.AdminRotateStart):
            if request.resume_id:
                rotation_id = server.rotate_resume(
                    request.resume_id, request.query_text, request.batch_size
                )
            else:
                rotation_id = server.rotate_start(
                    request.table,
                    request.column,
                    request.new_cek,
                    request.query_text,
                    batch_size=request.batch_size,
                    kind=request.kind,
                    scheme=request.scheme,
                )
            return msg.AdminRotateStepReply(
                rotation_id=rotation_id, more=True, rows_rotated=0
            )
        if isinstance(request, msg.AdminRotateStep):
            more, rows = server.rotate_step(request.rotation_id, request.max_batches)
            return msg.AdminRotateStepReply(
                rotation_id=request.rotation_id, more=more, rows_rotated=rows
            )
        if isinstance(request, msg.AdminRotateStatus):
            return msg.AdminRotateStatusReply(statuses=server.rotation_states())
        if isinstance(request, msg.AdminCekVersions):
            return msg.AdminCekVersionsReply(versions=server.cek_versions())
        raise WireError(f"unhandled message type {type(request).__name__!r}")

    @staticmethod
    def _session(sessions: dict[int, ServerSession], session_id: int) -> ServerSession:
        try:
            return sessions[session_id]
        except KeyError:
            raise WireError(f"unknown session id {session_id}") from None
