"""HTTP client for a hosted chat-completion endpoint.

One POST per decision: the body carries the model name, temperature, and the
role-tagged messages; the response body's first choice text is returned. The
auth token is read from the environment, never from config files.

This module is imported only where an LLM-backed mode first uses it: by
`LlmPolicy`, `LlmPlanner` and `LlmEvaluator` for `AdapterError`, and by the
CLI when it builds an adapter. `urllib` (and with it `http.client`, `email`,
`ssl` and `socket`) is imported later still, on the first request.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Callable

DEFAULT_TEMPERATURE = 0.7
DEFAULT_TIMEOUT_S = 60.0
DEFAULT_MAX_RETRIES = 2
# Delay before the first retry; each further retry waits twice as long.
RETRY_BACKOFF_S = 1.0
TOKEN_ENV_VAR = "TEAMSIM_API_TOKEN"


class AdapterError(RuntimeError):
    pass


def extract_json_object(text: str) -> dict:
    """Best-effort extraction of the first JSON object in a model reply."""
    cleaned = text.strip()
    if cleaned.startswith("```"):
        cleaned = re.sub(r"^```[a-zA-Z0-9_-]*\s*", "", cleaned)
        cleaned = re.sub(r"\s*```$", "", cleaned)
        cleaned = cleaned.strip()
    if not (cleaned.startswith("{") and cleaned.endswith("}")):
        start = cleaned.find("{")
        end = cleaned.rfind("}")
        if start == -1 or end <= start:
            raise AdapterError("no JSON object in response")
        cleaned = cleaned[start:end + 1]
    try:
        parsed = json.loads(cleaned)
    except json.JSONDecodeError as exc:
        raise AdapterError(f"invalid JSON in response: {exc}") from exc
    if not isinstance(parsed, dict):
        raise AdapterError("response JSON is not an object")
    return parsed


class ChatCompletionAdapter:
    """Minimal chat-completion client with bounded retries.

    A client error (HTTP 4xx other than 408 and 429) fails on the first
    response; transport failures, timeouts and server errors are retried,
    after RETRY_BACKOFF_S seconds and then twice as long before each further
    retry.

    `transport` may be injected for tests: a callable taking (url, body_bytes,
    headers) and returning the raw response bytes. `sleep` (default
    `time.sleep`) takes the delay before a retry, so tests need not wait.
    """

    def __init__(self, endpoint: str, model: str,
                 temperature: float = DEFAULT_TEMPERATURE,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 transport: Callable[[str, bytes, dict], bytes] | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if not endpoint:
            raise AdapterError("adapter endpoint required")
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.max_retries = max_retries
        self._transport = transport or self._http_transport
        self._sleep = sleep

    @property
    def url(self) -> str:
        return self.endpoint + "/chat/completions"

    def _http_transport(self, url: str, body: bytes, headers: dict) -> bytes:
        import urllib.request

        request = urllib.request.Request(url, data=body, headers=headers, method="POST")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read()

    def complete(self, messages: list[dict]) -> str:
        """Send one request; return the model's text. Raises AdapterError."""
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": messages,
        }
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"

        import urllib.error

        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
            try:
                raw = self._transport(self.url, body, headers)
                return self._parse_completion(raw)
            except AdapterError:
                raise
            except urllib.error.HTTPError as exc:
                # The error is also the response: close its connection.
                exc.close()
                # A client error repeats on every retry; a timeout (408) or
                # throttle (429) may not.
                if 400 <= exc.code < 500 and exc.code not in (408, 429):
                    raise AdapterError(f"HTTP {exc.code}: {exc.reason}") from exc
                last_error = exc
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                last_error = exc
        raise AdapterError(f"transport failed after retries: {last_error}")

    @staticmethod
    def _parse_completion(raw: bytes) -> str:
        try:
            data = json.loads(raw.decode("utf-8"))
            return data["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
            raise AdapterError(f"malformed completion response: {exc}") from exc

    def complete_json(self, messages: list[dict]) -> dict:
        return extract_json_object(self.complete(messages))
