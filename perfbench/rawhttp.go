package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// httpConn is a raw HTTP/1.1 keep-alive connection: it writes
// pre-built request bytes and reads the status line, the headers and a
// Content-Length body, so the driver's own cost per request is two
// syscalls and a header scan rather than net/http's client machinery.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialHTTP(base string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", strings.TrimPrefix(base, "http://"), 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

// getLine builds a GET request for path on base's host.
func getLine(base, path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: " + strings.TrimPrefix(base, "http://") + "\r\n\r\n")
}

var contentLength = []byte("Content-Length: ")

// roundTrip sends req and reads one response, discarding its body.
// It returns the status code and the body length read.
func (h *httpConn) roundTrip(req []byte) (status int, bodyLen int, err error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, 0, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		if len(line) <= 2 { // the blank line ending the headers
			break
		}
		if bytes.HasPrefix(line, contentLength) {
			n, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):])))
			if err != nil {
				return 0, 0, fmt.Errorf("bad header %q", line)
			}
		}
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("response without Content-Length (status %d)", status)
	}
	bodyLen, err = h.br.Discard(n)
	return status, bodyLen, err
}

func (h *httpConn) Close() error { return h.c.Close() }
