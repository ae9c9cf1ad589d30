"""Server configuration: flat JSON file, environment overrides, validation.

Precedence: command-line flags beat environment variables (MOTH_DOMAIN,
MOTH_PORT, MOTH_STORE), which beat the config file, which beats built-in
defaults.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import Any, Mapping

from .errors import ConfigError
from .identity import valid_domain

ENV_DOMAIN = "MOTH_DOMAIN"
ENV_PORT = "MOTH_PORT"
ENV_STORE = "MOTH_STORE"


@dataclass
class Config:
    domain: str
    port: int = 8420
    bind: str = "127.0.0.1"
    storage_backend: str = "memory"
    storage_path: str | None = None
    test_mode: bool = False
    key_bits: int = 2048

    @property
    def base_url(self) -> str:
        scheme = "http" if self.test_mode else "https"
        return f"{scheme}://{self.domain}"

    def validate(self) -> "Config":
        if not isinstance(self.domain, str) or not valid_domain(self.domain):
            raise ConfigError(f"domain {self.domain!r} is not a bare hostname")
        if not isinstance(self.port, int) or not 1 <= self.port <= 65535:
            raise ConfigError(f"port {self.port!r} out of range")
        if self.storage_backend not in ("memory", "file"):
            raise ConfigError(f"unknown storage backend {self.storage_backend!r}")
        if self.storage_backend == "file" and not self.storage_path:
            raise ConfigError("file storage backend needs a storage_path")
        if self.key_bits < 512:
            raise ConfigError("key_bits too small for RSA")
        return self

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Config":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if "domain" not in data:
            raise ConfigError("config has no domain")
        return cls(**dict(data)).validate()


def _parse_store(value: str) -> tuple[str, str | None]:
    """MOTH_STORE and --store syntax: "memory" or "file:<path>"."""
    if value == "memory":
        return "memory", None
    if value.startswith("file:"):
        path = value[len("file:"):]
        if not path:
            raise ConfigError("file store needs a path (file:<path>)")
        return "file", path
    raise ConfigError(f"store must be 'memory' or 'file:<path>', got {value!r}")


def load_config(
    path: str | None = None,
    env: Mapping[str, str] | None = None,
    defaults: Mapping[str, Any] | None = None,
    flags: Mapping[str, Any] | None = None,
) -> Config:
    """Defaults, then the file at path, then env, then flags: config keys, or
    "store" in MOTH_STORE syntax; a flag that is None was not given."""
    env = os.environ if env is None else env
    merged: dict[str, Any] = dict(defaults or {})

    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                file_data = json.load(handle)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file {path} not found") from exc
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(file_data)

    from_env: dict[str, Any] = {"domain": env.get(ENV_DOMAIN), "store": env.get(ENV_STORE)}
    if ENV_PORT in env:
        try:
            from_env["port"] = int(env[ENV_PORT])
        except ValueError as exc:
            raise ConfigError(f"{ENV_PORT} must be an integer") from exc
    for layer in (from_env, flags or {}):
        for key, value in layer.items():
            if value is None:
                continue
            if key == "store":
                merged["storage_backend"], merged["storage_path"] = _parse_store(value)
            else:
                merged[key] = value

    return Config.from_dict(merged)
