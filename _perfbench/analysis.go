package main

import (
	"strings"
	"time"
)

// analyzeServing joins the serving spans of a traced run by request ID
// and sets the request-path per-layer metrics, each a median over
// requests:
//
//   - transport: client latency minus the outermost server span (the
//     gateway's, else the replica's), i.e. the client span's self time;
//   - serve handler: the replica's wrapped-handler span;
//   - fleet hop: the gateway span's self time over its replica attempts;
//   - upstream per request: replica attempts per gateway request.
//
// Layers the workload does not run read 0.
func analyzeServing(spans []span, ms *metricSet) {
	type server struct{ gateway, replica []span }
	byID := map[string]*server{}
	get := func(id string) *server {
		s := byID[id]
		if s == nil {
			s = &server{}
			byID[id] = s
		}
		return s
	}
	var handler [numClasses][]float64
	var reloads, rollouts []float64
	for _, s := range spans {
		role, route, _ := strings.Cut(s.Name, ".")
		switch role {
		case "gateway":
			get(s.Trace).gateway = append(get(s.Trace).gateway, s)
		case "serve":
			switch route {
			case "reload":
				reloads = append(reloads, msec(s.dur()))
				continue
			case "predict":
				handler[classPredict] = append(handler[classPredict], us(s.dur()))
			default:
				handler[classBulk] = append(handler[classBulk], us(s.dur()))
			}
			get(s.Trace).replica = append(get(s.Trace).replica, s)
		case "fleet":
			rollouts = append(rollouts, msec(s.dur()))
		}
	}
	var transport [numClasses][]float64
	var hop []float64
	var gatewayReqs, upstream int
	for _, s := range spans {
		role, route, _ := strings.Cut(s.Name, ".")
		if role != "client" {
			continue
		}
		c := classPredict
		if route != "predict" {
			c = classBulk
		}
		srv := byID[s.Trace]
		if srv == nil {
			continue
		}
		outer := srv.replica
		if len(srv.gateway) > 0 {
			outer = srv.gateway
			gatewayReqs++
			upstream += len(srv.replica)
			if c == classPredict {
				hop = append(hop, us(selfTime(srv.gateway[0], srv.replica)))
			}
		}
		transport[c] = append(transport[c], us(selfTime(s, outer)))
	}
	ms.set("transport.predict_us", median(transport[classPredict]))
	ms.set("transport.query_us", median(transport[classBulk]))
	ms.set("serve.predict_handler_us", median(handler[classPredict]))
	ms.set("serve.query_handler_us", median(handler[classBulk]))
	ms.set("fleet.hop_us", median(hop))
	ratio := 0.0
	if gatewayReqs > 0 {
		ratio = float64(upstream) / float64(gatewayReqs)
	}
	ms.set("fleet.upstream_per_request", ratio)
	ms.set("fleet.rollout_ms", median(rollouts))
	ms.set("fleet.rollouts", float64(len(rollouts)))
	ms.set("serve.reload_ms", median(reloads))
}

func msec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
