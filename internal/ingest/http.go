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
)

// ListenerConfig carries the client-registration defaults both listeners
// share: how an id maps to a shedding weight and what per-client token
// bucket new clients get.
type ListenerConfig struct {
	// Weights overrides the shedding weight per client id (e.g. gold=4,
	// bronze=1); unknown ids weigh defaultWeight.
	Weights map[string]float64
	// Rate and Burst parameterize each client's token bucket (Rate <= 0
	// disables per-client rate limiting; Burst defaults to Rate).
	Rate  float64
	Burst int
}

const (
	// defaultWeight is the shedding weight of unknown client ids.
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
// weight and bucket defaults.
func (c ListenerConfig) client(g *Gate, id string) *Client {
	w := defaultWeight
	if ov, ok := c.Weights[id]; ok {
		w = ov
	}
	return g.Client(id, w, c.Rate, c.Burst)
}

// burstPool recycles the HTTP handler's admit scratch across requests; a
// burst is reset — holding no payload — before it goes back.
var burstPool = sync.Pool{New: func() any { return new(burst) }}

var (
	newline     = []byte{'\n'}
	errTooLarge = errors.New("record too large")
)

// readBody reads a request body in one piece — into a buffer sized by
// Content-Length when the client declared one, by doubling reads when it
// did not — and never more than maxRecordBytes+1 bytes of it. On failure
// it returns the HTTP status to answer with.
func readBody(r *http.Request) (body []byte, status int, err error) {
	if r.ContentLength > maxRecordBytes {
		return nil, http.StatusRequestEntityTooLarge, errTooLarge
	}
	if r.ContentLength >= 0 {
		body = make([]byte, r.ContentLength)
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

// offerBody admits the records of one request body — the body itself, or
// each non-empty line of an NDJSON one — in bursts of up to burstMax, and
// tallies the verdicts: how many were admitted, how many shed, and the
// refusal with the longest retry-after (the request's Retry-After).
func offerBody(cl *Client, body []byte, ndjson bool) (admitted, shed int, worst Verdict) {
	lines := 1
	if ndjson {
		lines = bytes.Count(body, newline) + 1
	}
	// A record is a sub-slice of the body and its one-slot Values a
	// sub-slice of slots: two allocations a request, plus the []byte box Go
	// makes per record. The topology may keep either, so neither is pooled;
	// the burst scratch, which it never sees, is.
	slots := make([]any, 0, lines)
	b := burstPool.Get().(*burst)
	flush := func() {
		b.admit(cl)
		for i := range b.offers {
			v := b.offers[i].verdict
			if v.Admitted {
				admitted++
				continue
			}
			shed++
			if v.RetryAfter > worst.RetryAfter {
				worst = v
			} else if worst.Reason == ShedNone {
				worst.Reason = v.Reason
			}
		}
		b.reset()
	}
	offer := func(rec []byte) {
		slots = append(slots, rec)
		k := len(slots)
		b.add(slots[k-1 : k : k])
		if len(b.offers) == burstMax {
			flush()
		}
	}
	if ndjson {
		for rest := body; len(rest) > 0; {
			var line []byte
			if line, rest = nextLine(rest); len(line) > 0 {
				offer(line)
			}
		}
	} else {
		offer(body)
	}
	if len(b.offers) > 0 {
		flush()
	}
	burstPool.Put(b)
	return admitted, shed, worst
}

// ClientIDHeader names the request header carrying the client id.
const ClientIDHeader = "X-Client-ID"

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
		id := r.Header.Get(ClientIDHeader)
		if id == "" {
			id = "anonymous"
		}
		cl := cfg.client(g, id)
		body, refusal, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), refusal)
			return
		}
		mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		admitted, shed, worst := offerBody(cl, body, mediaType == "application/x-ndjson")
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusAccepted
		if shed > 0 {
			status = http.StatusTooManyRequests
			secs := int(worst.RetryAfter.Seconds() + 0.999)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"admitted":%d,"shed":%d,"reason":%q}`+"\n", admitted, shed, worst.Reason)
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
