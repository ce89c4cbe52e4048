"""Wire format and robustness of the chat-completion adapter, including one
round trip over real HTTP on the loopback interface."""

import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from teamsim.adapter import (AdapterError, ChatCompletionAdapter,
                             extract_json_object)


class TestExtractJson:
    def test_plain_object(self):
        assert extract_json_object('{"a": 1}') == {"a": 1}

    def test_fenced_object(self):
        text = "```json\n{\"intention\": \"CONTINUE_TASK\"}\n```"
        assert extract_json_object(text) == {"intention": "CONTINUE_TASK"}

    def test_surrounding_prose(self):
        text = 'Sure, here you go: {"x": [1, 2]} hope that helps!'
        assert extract_json_object(text) == {"x": [1, 2]}

    def test_garbage_rejected(self):
        with pytest.raises(AdapterError, match="no JSON object"):
            extract_json_object("no braces here")

    def test_invalid_json_rejected(self):
        with pytest.raises(AdapterError, match="invalid JSON"):
            extract_json_object("{not: valid}")

    def test_non_object_rejected(self):
        with pytest.raises(AdapterError, match="no JSON object"):
            extract_json_object("[1, 2, 3]")


class TestRequestShape:
    def capture_adapter(self, monkeypatch=None, token=None):
        captured = {}

        def transport(url, body, headers):
            captured["url"] = url
            captured["body"] = json.loads(body.decode("utf-8"))
            captured["headers"] = headers
            return json.dumps(
                {"choices": [{"message": {"content": "{\"ok\": true}"}}]}
            ).encode("utf-8")

        adapter = ChatCompletionAdapter(endpoint="http://host/v1", model="m-1",
                                        temperature=0.7, transport=transport)
        return adapter, captured

    def test_body_carries_model_temperature_messages(self):
        adapter, captured = self.capture_adapter()
        messages = [{"role": "user", "content": "hello"}]
        text = adapter.complete(messages)
        assert text == '{"ok": true}'
        assert captured["url"] == "http://host/v1/chat/completions"
        assert captured["body"] == {
            "model": "m-1", "temperature": 0.7, "messages": messages,
        }

    def test_token_from_environment(self, monkeypatch):
        adapter, captured = self.capture_adapter()
        monkeypatch.setenv("TEAMSIM_API_TOKEN", "sekrit")
        adapter.complete([{"role": "user", "content": "x"}])
        assert captured["headers"]["Authorization"] == "Bearer sekrit"

    def test_no_token_no_header(self, monkeypatch):
        adapter, captured = self.capture_adapter()
        monkeypatch.delenv("TEAMSIM_API_TOKEN", raising=False)
        adapter.complete([{"role": "user", "content": "x"}])
        assert "Authorization" not in captured["headers"]

    def test_complete_json_parses(self):
        adapter, _ = self.capture_adapter()
        assert adapter.complete_json([{"role": "user", "content": "x"}]) == {"ok": True}


class TestRetries:
    def test_retries_then_raises(self):
        calls = {"n": 0}

        def transport(url, body, headers):
            calls["n"] += 1
            raise OSError("down")

        adapter = ChatCompletionAdapter(endpoint="http://x", model="m",
                                        max_retries=2, transport=transport)
        with pytest.raises(AdapterError, match="transport failed"):
            adapter.complete([])
        assert calls["n"] == 3

    def test_transient_failure_recovers(self):
        calls = {"n": 0}

        def transport(url, body, headers):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("blip")
            return json.dumps(
                {"choices": [{"message": {"content": "ok"}}]}).encode("utf-8")

        adapter = ChatCompletionAdapter(endpoint="http://x", model="m",
                                        max_retries=2, transport=transport)
        assert adapter.complete([]) == "ok"

    @staticmethod
    def _http_error(code: int):
        calls = {"n": 0}

        def transport(url, body, headers):
            calls["n"] += 1
            raise urllib.error.HTTPError(url, code, "status", {}, None)

        return calls, transport

    @pytest.mark.parametrize("code", [400, 401, 403, 404])
    def test_client_error_is_not_retried(self, code):
        calls, transport = self._http_error(code)
        adapter = ChatCompletionAdapter(endpoint="http://x", model="m",
                                        max_retries=2, transport=transport)
        with pytest.raises(AdapterError, match=f"HTTP {code}"):
            adapter.complete([])
        assert calls["n"] == 1

    @pytest.mark.parametrize("code", [408, 429, 500, 503])
    def test_timeout_throttle_and_server_errors_are_retried(self, code):
        calls, transport = self._http_error(code)
        adapter = ChatCompletionAdapter(endpoint="http://x", model="m",
                                        max_retries=2, transport=transport)
        with pytest.raises(AdapterError, match="transport failed"):
            adapter.complete([])
        assert calls["n"] == 3

    def test_malformed_completion_body(self):
        adapter = ChatCompletionAdapter(
            endpoint="http://x", model="m", max_retries=0,
            transport=lambda u, b, h: b"{\"weird\": []}")
        with pytest.raises(AdapterError, match="malformed completion"):
            adapter.complete([])


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length).decode("utf-8"))
        reply = {
            "choices": [{
                "message": {
                    "content": json.dumps({"echoed_model": request["model"]}),
                }
            }]
        }
        body = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_round_trip_on_loopback():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        adapter = ChatCompletionAdapter(endpoint=f"http://127.0.0.1:{port}",
                                        model="loop-model", max_retries=0)
        parsed = adapter.complete_json([{"role": "user", "content": "ping"}])
        assert parsed == {"echoed_model": "loop-model"}
    finally:
        server.shutdown()
        thread.join(timeout=5)
