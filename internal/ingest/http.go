package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"

	"github.com/drs-repro/drs/internal/engine"
)

// ListenerConfig carries the client-registration defaults both listeners
// share: what per-client token bucket new clients get. Every client a
// listener registers sheds at defaultWeight: the id is the client's own
// claim, so a weight keyed on it would be the client's to pick.
type ListenerConfig struct {
	// Rate and Burst parameterize each client's token bucket (Rate <= 0
	// disables per-client rate limiting; Burst defaults to Rate).
	Rate  float64
	Burst int
}

const (
	// defaultWeight is the shedding weight of a listener-registered client.
	defaultWeight = 1.0
	// maxRecordBytes bounds one record; larger frames or bodies are
	// rejected outright.
	maxRecordBytes = 1 << 20
)

func (c ListenerConfig) withDefaults() ListenerConfig {
	if c.Burst <= 0 && c.Rate > 0 {
		c.Burst = int(c.Rate)
	}
	return c
}

// client registers (or fetches) the client for an id under the config's
// bucket defaults.
func (c ListenerConfig) client(g *Gate, id string) *Client {
	return g.Client(id, defaultWeight, c.Rate, c.Burst)
}

// httpScratch is what one request borrows from scratchPool: the admit
// scratch, the slab its records, their one-slot Values and boxes are carved
// from, and the reply body's bytes. The topology may keep a record or its
// Values forever, so the slab is never rewound — a full chunk is dropped
// and replaced, and a kept payload keeps its chunks alive (engine.Slab's
// rule, the TCP listener's too); the burst is reset — holding no payload —
// before the scratch goes back.
type httpScratch struct {
	burst burst
	slab  engine.Slab
	reply []byte
}

var scratchPool = sync.Pool{New: func() any { return new(httpScratch) }}

var errTooLarge = errors.New("record too large")

// The reply's header values, shared by every response: the handler assigns
// them into the header map, which net/http clones before writing and never
// mutates.
var (
	contentTypeJSON = []string{"application/json"}
	retryAfterOne   = []string{"1"}
)

// readBody reads a request body in one piece — carved from sl when the
// client declared a Content-Length, into a buffer grown by doubling reads
// when it did not — and never more than maxRecordBytes+1 bytes of it. On
// failure it returns the HTTP status to answer with.
func readBody(r *http.Request, sl *engine.Slab) (body []byte, status int, err error) {
	if r.ContentLength > maxRecordBytes {
		return nil, http.StatusRequestEntityTooLarge, errTooLarge
	}
	if r.ContentLength >= 0 {
		body = sl.Bytes(int(r.ContentLength))
		if _, err := io.ReadFull(r.Body, body); err != nil {
			return nil, http.StatusBadRequest, err
		}
		return body, 0, nil
	}
	body = make([]byte, 0, 4<<10)
	for {
		if len(body) == cap(body) {
			body = append(make([]byte, 0, min(2*cap(body), maxRecordBytes+1)), body...)
		}
		n, err := r.Body.Read(body[len(body):cap(body)])
		if body = body[:len(body)+n]; len(body) > maxRecordBytes {
			return nil, http.StatusRequestEntityTooLarge, errTooLarge
		}
		if err == io.EOF {
			return body, 0, nil
		}
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
}

// nextLine cuts the first line off an NDJSON body exactly as
// bufio.ScanLines tokenizes: the line ends at the first newline (or the end
// of the body), one trailing carriage return is dropped, and the line is
// returned in place, cap == len, with what follows it.
func nextLine(body []byte) (line, rest []byte) {
	line = body
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		line, rest = body[:i], body[i+1:]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line[:len(line):len(line)], rest
}

// tally is one request's verdicts: how many records were admitted, how many
// shed, and the refusal with the longest retry-after (the request's
// Retry-After).
type tally struct {
	admitted, shed int
	worst          Verdict
}

// offer adds one record — a sub-slice of the body, its one-slot Values and
// the box of its []byte carved from the slab: nothing a record allocates —
// and admits the burst when it is full.
func (sc *httpScratch) offer(cl *Client, rec []byte, t *tally) {
	v := sc.slab.Values(1)
	v[0] = sc.slab.BoxBytes(rec)
	sc.burst.add(v)
	if len(sc.burst.offers) == burstMax {
		sc.flush(cl, t)
	}
}

// flush admits the pending burst and books its verdicts.
func (sc *httpScratch) flush(cl *Client, t *tally) {
	b := &sc.burst
	b.admit(cl)
	for i := range b.offers {
		v := b.offers[i].verdict
		if v.Admitted {
			t.admitted++
			continue
		}
		t.shed++
		if v.RetryAfter > t.worst.RetryAfter {
			t.worst = v
		} else if t.worst.Reason == ShedNone {
			t.worst.Reason = v.Reason
		}
	}
	b.reset()
}

// offerBody admits the records of one request body — the body itself, or
// each non-empty line of an NDJSON one — in bursts of up to burstMax.
func (sc *httpScratch) offerBody(cl *Client, body []byte, ndjson bool) (t tally) {
	if ndjson {
		for rest := body; len(rest) > 0; {
			var line []byte
			if line, rest = nextLine(rest); len(line) > 0 {
				sc.offer(cl, line, &t)
			}
		}
	} else {
		sc.offer(cl, body, &t)
	}
	if len(sc.burst.offers) > 0 {
		sc.flush(cl, &t)
	}
	return t
}

// isNDJSON reports whether a Content-Type header names NDJSON. The two
// values the front door sees — none, and exactly the media type — are
// answered without parsing; mime.ParseMediaType allocates, and on an empty
// header allocates its error.
func isNDJSON(contentType string) bool {
	const ndjson = "application/x-ndjson"
	switch contentType {
	case "":
		return false
	case ndjson:
		return true
	}
	mediaType, _, _ := mime.ParseMediaType(contentType)
	return mediaType == ndjson
}

// ClientIDHeader names the request header carrying the client id.
const ClientIDHeader = "X-Client-ID"

// clientIDKey is ClientIDHeader as net/http keys a parsed request's header
// map: indexing with it skips the canonical copy Header.Get makes of a name
// that is not in canonical form already.
var clientIDKey = http.CanonicalHeaderKey(ClientIDHeader)

// Handler returns the HTTP front door for a gate:
//
//	POST /ingest  one record per request body — or, with Content-Type
//	              application/x-ndjson, one record per line. The client id
//	              comes from the X-Client-ID header ("anonymous" when
//	              absent). Every record runs the full admission path;
//	              202 Accepted when everything was admitted, 429 Too Many
//	              Requests (with a Retry-After header) when anything was
//	              shed. The JSON body reports the admitted/shed split.
//	GET  /stats   the gate's cumulative counters and current plan.
func Handler(g *Gate, cfg ListenerConfig) http.Handler {
	cfg = cfg.withDefaults()
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id := "anonymous"
		if v := r.Header[clientIDKey]; len(v) > 0 && v[0] != "" {
			id = v[0]
		}
		cl := cfg.client(g, id)
		sc := scratchPool.Get().(*httpScratch)
		defer scratchPool.Put(sc)
		body, refusal, err := readBody(r, &sc.slab)
		if err != nil {
			http.Error(w, err.Error(), refusal)
			return
		}
		// The body was read to its EOF; closed, net/http knows it has nothing
		// left to discard before it writes the response (a drain it otherwise
		// sets up on every request with a body). Nothing is lost with the
		// error: the server closes the body again after the handler.
		_ = r.Body.Close()
		t := sc.offerBody(cl, body, isNDJSON(r.Header.Get("Content-Type")))
		h := w.Header()
		h["Content-Type"] = contentTypeJSON
		status := http.StatusAccepted
		if t.shed > 0 {
			status = http.StatusTooManyRequests
			if secs := int(t.worst.RetryAfter.Seconds() + 0.999); secs > 1 {
				h["Retry-After"] = []string{strconv.Itoa(secs)}
			} else {
				h["Retry-After"] = retryAfterOne
			}
		}
		w.WriteHeader(status)
		// fmt.Fprintf(w, `{"admitted":%d,"shed":%d,"reason":%q}`+"\n", ...),
		// without boxing its arguments.
		p := append(sc.reply[:0], `{"admitted":`...)
		p = strconv.AppendInt(p, int64(t.admitted), 10)
		p = append(p, `,"shed":`...)
		p = strconv.AppendInt(p, int64(t.shed), 10)
		p = append(p, `,"reason":`...)
		p = strconv.AppendQuote(p, t.worst.Reason.String())
		sc.reply = append(p, "}\n"...)
		_, _ = w.Write(sc.reply) // a client that hung up has its verdict on the books
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		s := g.Stats()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"offered":%d,"admitted":%d,"shed_rate_limit":%d,"shed_overload":%d,"shed_backlog":%d,"admit_fraction":%.3f,"sustainable_rate":%.3f,"scale_out_viable":%t}`+"\n",
			s.Offered, s.Admitted, s.ShedRateLimit, s.ShedOverload, s.ShedBacklog,
			s.AdmitFraction, s.SustainableRate, s.ScaleOutViable)
	})
	return mux
}
