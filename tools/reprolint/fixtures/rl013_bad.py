"""Fixture: torn durable writes, autocommit SQL (RL013 x3)."""

import json
import sqlite3


class Ledger:
    def __init__(self, root):
        self.root = root
        self.path = root / "ledger.json"

    def save(self, payload):
        # RL013: a SIGKILL mid-write leaves a torn ledger.
        self.path.write_text(json.dumps(payload))

    def append_log(self, line):
        log = self.path.with_suffix(".log")
        # RL013: bare append to a durable path, no tmp + os.replace.
        with open(log, "a") as handle:
            handle.write(line)


class SqlLedger:
    def __init__(self, root):
        self.conn = sqlite3.connect(root / "ledger.sqlite3")

    def save(self, key, payload):
        # RL013: autocommit mutation -- no rollback point on a crash.
        self.conn.execute(
            "UPDATE ledger SET payload = ? WHERE key = ?", (payload, key)
        )
