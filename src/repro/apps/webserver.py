"""The Apache-stand-in web server (paper Figure 6).

A small static-file HTTP server in MiniC.  Request handling is
dominated by syscall/device time (accept, recv, file reads, sends), so
SHIFT's load/store instrumentation barely shows — the property behind
the paper's ~1% server overhead.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Tuple

WEBSERVER_SOURCE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);
native int open(char *path, int flags);
native int read(int fd, char *buf, int n);
native int close(int fd);

char req[512];
char path[256];
char chunk[1100];
int served;

int send_str(int fd, char *s) {
    return send(fd, s, strlen(s));
}

int serve(int fd) {
    int n = recv(fd, req, 500);
    if (n <= 0) {
        return 0;
    }
    req[n] = 0;
    if (strncmp(req, "GET ", 4) != 0) {
        send_str(fd, "HTTP/1.0 400 Bad Request\\r\\n\\r\\n");
        return 0;
    }
    // Resolve the request path under the document root.
    strcpy(path, "/www");
    int i = 4;
    int pi = 4;
    while (req[i] && req[i] != ' ' && pi < 250) {
        path[pi] = req[i];
        pi++;
        i++;
    }
    path[pi] = 0;
    int f = open(path, 0);
    if (f < 0) {
        send_str(fd, "HTTP/1.0 404 Not Found\\r\\n\\r\\n");
        return 0;
    }
    send_str(fd, "HTTP/1.0 200 OK\\r\\nServer: mini-httpd\\r\\n\\r\\n");
    int got = read(f, chunk, 1024);
    while (got > 0) {
        send(fd, chunk, got);
        got = read(f, chunk, 1024);
    }
    close(f);
    return 1;
}

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        served += serve(fd);
    }
    return served;
}
"""

#: A deliberately vulnerable variant for the resilience experiments
#: (repro.resil): same protocol as WEBSERVER_SOURCE, three planted bugs.
#:
#: 1. The URL-copy loop has **no bounds check**, so a ~300-byte URL
#:    overflows ``path[256]`` into the adjacent ``mime_probe`` global.
#: 2. ``mime_probe`` (legitimately a pointer to the first chunk byte,
#:    for content sniffing) is **dereferenced after parsing** — an
#:    overflowed, attacker-controlled probe address is exactly the
#:    corrupted-pointer load SHIFT policy L1 detects.
#: 3. A ``GET Retry-…`` request enters a blocking open-retry loop that
#:    never terminates — caught by the supervisor's per-request
#:    instruction-budget watchdog, not by taint tracking.
#:
#: Compiled *strict* (byte granularity), every request byte is tainted
#: network input; clean requests still run alert-free because their
#: bytes are only compared and copied, never used as addresses.
RESIL_WEBSERVER_SOURCE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);
native int open(char *path, int flags);
native int read(int fd, char *buf, int n);
native int close(int fd);

char req[512];
char chunk[1100];
char path[256];
int mime_probe;
int served;

int send_str(int fd, char *s) {
    return send(fd, s, strlen(s));
}

int serve(int fd) {
    int n = recv(fd, req, 500);
    if (n <= 0) {
        return 0;
    }
    req[n] = 0;
    if (strncmp(req, "GET ", 4) != 0) {
        send_str(fd, "HTTP/1.0 400 Bad Request\\r\\n\\r\\n");
        return 0;
    }
    // Content-sniffing probe: points at the first body byte by default.
    mime_probe = (int)&chunk;
    strcpy(path, "/www");
    int i = 4;
    int pi = 4;
    while (req[i] && req[i] != ' ') {  // BUG 1: no pi bound
        path[pi] = req[i];
        pi++;
        i++;
    }
    path[pi] = 0;
    char *probe = (char *)mime_probe;  // BUG 2: deref after overflow
    int sniff = *probe;
    int f = open(path, 0);
    while (f < 0 && req[5] == 'R') {  // BUG 3: blocking retry loop
        f = open(path, 0);
    }
    if (f < 0) {
        send_str(fd, "HTTP/1.0 404 Not Found\\r\\n\\r\\n");
        return 0;
    }
    send_str(fd, "HTTP/1.0 200 OK\\r\\nServer: mini-httpd\\r\\n\\r\\n");
    int got = read(f, chunk, 1024);
    while (got > 0) {
        send(fd, chunk, got);
        got = read(f, chunk, 1024);
    }
    close(f);
    return 1;
}

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        served += serve(fd);
    }
    return served;
}
"""


#: Tier-1 fleet frontend (repro.fleet): a reverse proxy that accepts a
#: connection, validates the request line, and forwards the bytes
#: upstream by sending them back out on the connection.  It never opens
#: a file, so no fopen-point policy can fire here — the point of the
#: two-tier experiment is that the *backend* catches a traversal whose
#: taint arrived purely via the wire-transported tag bits.  The fleet
#: layer runs its connections with ``capture_taint=True``, so the
#: forwarded bytes leave this machine with their taint attached.
FLEET_PROXY_SOURCE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);

char req[600];
int forwarded;

int send_str(int fd, char *s) {
    return send(fd, s, strlen(s));
}

int forward(int fd) {
    int n = recv(fd, req, 580);
    if (n <= 0) {
        return 0;
    }
    req[n] = 0;
    if (strncmp(req, "GET ", 4) != 0) {
        send_str(fd, "HTTP/1.0 400 Bad Request\\r\\n\\r\\n");
        return 0;
    }
    send(fd, req, n);
    return 1;
}

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        forwarded += forward(fd);
    }
    return forwarded;
}
"""


#: Dynamic-content backend for the adaptive experiments (repro.adaptive).
#: Unlike the static-file server (whose cycles are device time, hiding
#: instrumentation cost), this app *computes*: every request hashes the
#: whole file body byte-by-byte before answering, so instrumented loads
#: and stores dominate and always-on SHIFT pays full freight.  It also
#: scrubs its request-derived buffers (``memset`` clears tag bits along
#: with the data) once the URL is resolved, so a machine that went
#: tainted on one request provably re-quiesces before the next accept —
#: the behaviour on-demand tracking converts into cycles saved.
BACKEND_SOURCE = """
native int accept();
native int recv(int fd, char *buf, int n);
native int send(int fd, char *buf, int n);
native int open(char *path, int flags);
native int read(int fd, char *buf, int n);
native int close(int fd);

char req[512];
char path[256];
char chunk[1100];
char digest[16];
int served;

int send_str(int fd, char *s) {
    return send(fd, s, strlen(s));
}

int serve(int fd) {
    int n = recv(fd, req, 500);
    if (n <= 0) {
        return 0;
    }
    req[n] = 0;
    if (strncmp(req, "GET ", 4) != 0) {
        send_str(fd, "HTTP/1.0 400 Bad Request\\r\\n\\r\\n");
        memset(req, 0, 512);
        return 0;
    }
    strcpy(path, "/www");
    int i = 4;
    int pi = 4;
    while (req[i] && req[i] != ' ' && pi < 250) {
        path[pi] = req[i];
        pi++;
        i++;
    }
    path[pi] = 0;
    int f = open(path, 0);
    // The URL is resolved; scrub every request-derived byte so the
    // worker is taint-free before the compute phase starts.
    memset(req, 0, 512);
    memset(path, 0, 256);
    if (f < 0) {
        send_str(fd, "HTTP/1.0 404 Not Found\\r\\n\\r\\n");
        return 0;
    }
    // Dynamic content: FNV-style digest over the entire file body,
    // then an in-place scramble pass re-read by a second checksum —
    // loads *and* stores on every byte, the access pattern SHIFT's
    // per-access instrumentation prices at full rate.
    int h = 2166136261;
    int got = read(f, chunk, 1024);
    while (got > 0) {
        int j = 0;
        while (j < got) {
            h = (h ^ chunk[j]) * 16777619;
            chunk[j] = h & 127;
            j++;
        }
        j = 0;
        while (j < got) {
            h = (h + chunk[j]) * 33;
            j++;
        }
        got = read(f, chunk, 1024);
    }
    close(f);
    send_str(fd, "HTTP/1.0 200 OK\\r\\nServer: mini-backend\\r\\n\\r\\n");
    int d = 0;
    while (d < 8) {
        int v = (h >> ((7 - d) * 4)) & 15;
        if (v < 10) {
            digest[d] = '0' + v;
        } else {
            digest[d] = 'a' + (v - 10);
        }
        d++;
    }
    digest[8] = 10;
    send(fd, digest, 9);
    return 1;
}

int main() {
    int fd;
    while ((fd = accept()) >= 0) {
        served += serve(fd);
    }
    return served;
}
"""


def overflow_request(length: int = 300) -> bytes:
    """Buffer-overflow attack: URL long enough to smash ``mime_probe``."""
    return b"GET /" + b"A" * length + b" HTTP/1.0\r\n\r\n"


def traversal_request(target: str = "/../etc/secret") -> bytes:
    """Directory-traversal attack caught by policy H2 at ``open``."""
    return f"GET {target} HTTP/1.0\r\n\r\n".encode()


def runaway_request() -> bytes:
    """Request that drives the server into its blocking retry loop."""
    return b"GET /Retry-forever HTTP/1.0\r\n\r\n"


#: The request sizes measured in the paper (KB).
FILE_SIZES_KB = (4, 8, 16, 512)


def make_site(sizes_kb=FILE_SIZES_KB, seed: int = 7) -> Dict[str, bytes]:
    """Document root with one file per requested size.

    A fresh dict on every call (callers add files to it); the seeded
    bodies behind it are generated once per ``(sizes, seed)``.
    """
    return dict(_site_files(tuple(sizes_kb), seed))


@functools.lru_cache(maxsize=8)
def _site_files(sizes_kb: Tuple[int, ...],
                seed: int) -> Tuple[Tuple[str, bytes], ...]:
    rng = random.Random(seed)
    return tuple(
        (f"/www/file{kb}k.bin",
         bytes(rng.randrange(32, 127) for _ in range(1024)) * kb)
        for kb in sizes_kb)


def make_request(size_kb: int) -> bytes:
    """HTTP request line for the size's benchmark file."""
    return f"GET /file{size_kb}k.bin HTTP/1.0\r\nHost: bench\r\n\r\n".encode()
