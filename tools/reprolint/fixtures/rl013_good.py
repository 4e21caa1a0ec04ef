"""Fixture twin: atomic durable writes, transactional SQL (no RL013)."""

import json
import os


class Ledger:
    def __init__(self, root):
        self.root = root
        self.path = root / "ledger.json"

    def save(self, payload):
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.path)


class SqlLedger:
    def __init__(self, root):
        import sqlite3

        self.conn = sqlite3.connect(root / "ledger.sqlite3")
        # Idempotent single-statement schema setup is exempt.
        self.conn.execute("CREATE TABLE IF NOT EXISTS ledger (key, payload)")

    def save(self, key, payload):
        # Transactional write: commits or rolls back as one unit, which
        # satisfies the durable-write discipline.
        with self.conn:
            self.conn.execute(
                "UPDATE ledger SET payload = ? WHERE key = ?", (payload, key)
            )

    def load(self, key):
        # Reads are exempt regardless of transaction context.
        return self.conn.execute(
            "SELECT payload FROM ledger WHERE key = ?", (key,)
        ).fetchone()


def scratch_dump(tmp_path, payload):
    # Not a durable path (not derived from self): test scratch files may
    # be written directly.
    with open(tmp_path / "scratch.json", "w") as handle:
        json.dump(payload, handle)
