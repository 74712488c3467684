package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
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
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRecordBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > maxRecordBytes {
			http.Error(w, "record too large", http.StatusRequestEntityTooLarge)
			return
		}
		admitted, shed := 0, 0
		var worst Verdict
		offer := func(rec []byte) {
			v := cl.Offer(valuesFor(rec))
			if v.Admitted {
				admitted++
				return
			}
			shed++
			if v.RetryAfter > worst.RetryAfter {
				worst = v
			} else if worst.Reason == ShedNone {
				worst.Reason = v.Reason
			}
		}
		mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if mediaType == "application/x-ndjson" {
			sc := bufio.NewScanner(bytes.NewReader(body))
			sc.Buffer(nil, maxRecordBytes)
			for sc.Scan() {
				if len(sc.Bytes()) == 0 {
					continue
				}
				rec := make([]byte, len(sc.Bytes()))
				copy(rec, sc.Bytes())
				offer(rec)
			}
		} else {
			offer(body)
		}
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
