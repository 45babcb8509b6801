package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenSchemaV1 pins the v1 wire schema byte-for-byte: each
// response type marshals to exactly these documents, and each golden
// document unmarshals back to the original value. Changing any of these
// strings is a wire-schema break and requires bumping Version.
func TestGoldenSchemaV1(t *testing.T) {
	cases := []struct {
		name   string
		value  any
		fresh  func() any
		golden string
	}{
		{
			name: "select_request",
			value: SelectRequest{
				Version: 1, Profile: "grisou", Op: "bcast", P: 90, M: 1 << 20,
			},
			fresh:  func() any { return new(SelectRequest) },
			golden: `{"version":1,"profile":"grisou","op":"bcast","p":90,"m":1048576}`,
		},
		{
			name: "select_response",
			value: SelectResponse{
				Version: 1, Profile: "grisou", Op: "bcast",
				Algorithm: "bcast/split_binary", SegSize: 8192, Predicted: 0.0030125,
			},
			fresh:  func() any { return new(SelectResponse) },
			golden: `{"version":1,"profile":"grisou","op":"bcast","algorithm":"bcast/split_binary","seg_size":8192,"predicted_seconds":0.0030125}`,
		},
		{
			name: "calibration_request",
			value: CalibrationRequest{
				Version: 1, Profile: "gros", Nodes: 16, Procs: 8,
				Sizes: []int{8192, 65536}, Ops: []string{"gather"}, Fast: true,
			},
			fresh:  func() any { return new(CalibrationRequest) },
			golden: `{"version":1,"profile":"gros","nodes":16,"procs":8,"sizes":[8192,65536],"ops":["gather"],"fast":true}`,
		},
		{
			name: "job",
			value: Job{
				Version: 1, ID: "cal-1", State: JobRunning, Profile: "grisou",
				Done: 12, Total: 60,
			},
			fresh:  func() any { return new(Job) },
			golden: `{"version":1,"id":"cal-1","state":"running","profile":"grisou","points_done":12,"points_total":60}`,
		},
		{
			name: "job_done",
			value: Job{
				Version: 1, ID: "cal-2", State: JobDone, Profile: "grisou",
				Digest: "sha256:abc", Done: 60, Total: 60,
			},
			fresh:  func() any { return new(Job) },
			golden: `{"version":1,"id":"cal-2","state":"done","profile":"grisou","digest":"sha256:abc","points_done":60,"points_total":60}`,
		},
		{
			name:   "job_list",
			value:  JobList{Version: 1, Jobs: []Job{}},
			fresh:  func() any { return new(JobList) },
			golden: `{"version":1,"jobs":[]}`,
		},
		{
			name:   "error",
			value:  Error{Version: 1, Code: CodeNotCalibrated, Message: "no models for gather"},
			fresh:  func() any { return new(Error) },
			golden: `{"version":1,"code":"not_calibrated","message":"no models for gather"}`,
		},
		{
			name:   "health",
			value:  Health{Version: 1, Status: "ok"},
			fresh:  func() any { return new(Health) },
			golden: `{"version":1,"status":"ok"}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.value)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.golden {
				t.Fatalf("marshal drifted from golden:\n got %s\nwant %s", got, tc.golden)
			}
			back := tc.fresh()
			if err := json.Unmarshal([]byte(tc.golden), back); err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(back).Elem().Interface(); !reflect.DeepEqual(got, tc.value) {
				t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, tc.value)
			}
		})
	}
}

// validSelectBodies are select requests both the zero-allocation parser
// and encoding/json accept: unknown fields, whitespace, key case.
var validSelectBodies = []string{
	`{"profile":"grisou","p":90,"m":1048576}`,
	`{"version":1,"profile":"gros","op":"gather","p":16,"m":8192}`,
	`{ "p" : 4 , "m" : 65536 , "profile" : "grisou2" }`,
	"{\n\t\"profile\": \"grisou\",\n\t\"op\": \"bcast\",\n\t\"p\": 8,\n\t\"m\": 512\n}",
	`{"profile":"g","p":-1,"m":0}`,
	`{"future_field":{"nested":[1,2,{"x":"y"}]},"profile":"grisou","p":2,"m":3,"flag":true,"f2":null,"f3":1.5e-3}`,
	`{"u1":"skipped string","u2":true,"u3":false,"u4":null,"u5":-1.5e3,"p":7}`,
	`{"u":["str in array",false,null],"m":12}`,
	`{"u":[[],{},0,-0.0,1E+2,[{"a":[]}]],"p":0}`,
	`{"Profile":"gros","OP":"scatter","P":3,"M":4,"Version":1}`, // keys match case-insensitively
	"{\"ver\u017fion\":1,\"p\":1,\"P\":2}",                      // Unicode folding; the last duplicate wins
	`{}`,
}

// malformedSelectBodies are select requests the parser rejects.
var malformedSelectBodies = []string{
	``,
	`[]`,
	`{"profile":"grisou"`,
	`{"profile":"gri\"sou","p":1,"m":1}`, // escapes rejected by design
	`{"p":1.5,"m":1}`,                    // non-integer p
	`{"p":1,"m":1}{"p":2}`,               // trailing data
	`{"p":1,,"m":1}`,
	`{"p":}`,
	`{"p":999999999999999999999,"m":1}`, // overflow guard
	`{"p":01,"m":1}`,                    // leading zero
	`{"unknown":{"a":[}],"p":1}`,
	`{"p" 1}`,                // missing colon
	`{"op":"unterminated`,    // string runs off the end
	`{"u":`,                  // value runs off the end
	`{"u":[1,2`,              // container runs off the end
	`{"u":123`,               // number runs off the end
	`{"u":@}`,                // not a JSON value
	`{"u":tru}`,              // broken literal
	`{"u":["a\"b"],"p":1}`,   // escape inside skipped container
	`{"u":[1 2]}`,            // missing comma inside skipped container
	`{"u":{"a" 1}}`,          // missing colon inside skipped container
	`{"u":{1:2}}`,            // non-string key inside skipped container
	`{"u":[1,]}`,             // trailing comma inside skipped container
	`{"u":-}`,                // sign without digits
	`{"u":1.}`,               // fraction without digits
	`{"u":1e+}`,              // exponent without digits
	`{"u":00}`,               // leading zero in a skipped number
	"{\"profile\":\"\xff\"}", // invalid UTF-8
	`{"u":` + strings.Repeat("[", 33) + strings.Repeat("]", 33) + `}`, // nesting over the 32 bound
}

// TestParseSelectRequestAgreesWithEncodingJSON cross-checks the
// zero-allocation parser against the stdlib on a spread of valid
// bodies.
func TestParseSelectRequestAgreesWithEncodingJSON(t *testing.T) {
	for _, body := range validSelectBodies {
		var want SelectRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("stdlib rejects %q: %v", body, err)
		}
		var v SelectRequestView
		if err := ParseSelectRequest([]byte(body), &v); err != nil {
			t.Fatalf("ParseSelectRequest(%q) = %v", body, err)
		}
		if got := v.request(); got != want {
			t.Fatalf("%q: parser %+v, stdlib %+v", body, got, want)
		}
	}
}

func TestParseSelectRequestRejectsMalformed(t *testing.T) {
	for _, body := range malformedSelectBodies {
		var v SelectRequestView
		if err := ParseSelectRequest([]byte(body), &v); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseSelectRequest(%q) = %v, want ErrMalformed", body, err)
		}
	}
}

// FuzzParseSelectRequest is the parser's differential against
// encoding/json: whenever ParseSelectRequest accepts a body, the stdlib
// must accept it too and decode the same field values. The parser may
// reject more than the stdlib (escapes, null, deep nesting), never less.
func FuzzParseSelectRequest(f *testing.F) {
	for _, body := range validSelectBodies {
		f.Add([]byte(body))
	}
	for _, body := range malformedSelectBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var v SelectRequestView
		if ParseSelectRequest(body, &v) != nil {
			return
		}
		var want SelectRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("parser accepts %q, encoding/json rejects it: %v", body, err)
		}
		if got := v.request(); got != want {
			t.Fatalf("%q: parser %+v, encoding/json %+v", body, got, want)
		}
	})
}

// request copies a parsed view into the struct encoding/json decodes.
func (v *SelectRequestView) request() SelectRequest {
	return SelectRequest{Version: v.Version, Profile: string(v.Profile), Op: string(v.Op), P: v.P, M: v.M}
}

// TestAppendSelectResponseMatchesEncodingJSON pins the hand-rolled
// encoder to the stdlib's output across float shapes, including the
// exponent forms encoding/json special-cases.
func TestAppendSelectResponseMatchesEncodingJSON(t *testing.T) {
	for _, p := range []float64{0, 0.0030125, 1.0 / 3.0, 5e-7, 1e-9, 3.25e21, 42, -1.5, -2.5e-8, math.MaxFloat64} {
		r := SelectResponse{
			Version: Version, Profile: "grisou", Op: "bcast",
			Algorithm: "bcast/binomial", SegSize: 8192, Predicted: p,
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendSelectResponse(nil, &r)
		if !bytes.Equal(got, want) {
			t.Fatalf("predicted=%g:\n got %s\nwant %s", p, got, want)
		}
	}
}

// TestCodecZeroAlloc is the hot-path contract: parsing a request and
// encoding a response into a reused buffer allocates nothing.
func TestCodecZeroAlloc(t *testing.T) {
	body := []byte(`{"version":1,"profile":"grisou","op":"bcast","p":90,"m":1048576}`)
	var v SelectRequestView
	resp := SelectResponse{
		Version: Version, Profile: "grisou", Op: "bcast",
		Algorithm: "bcast/split_binary", SegSize: 8192, Predicted: 0.0030125,
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if err := ParseSelectRequest(body, &v); err != nil {
			t.Fatal(err)
		}
		buf = AppendSelectResponse(buf[:0], &resp)
	})
	if allocs != 0 {
		t.Fatalf("codec allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkParseSelectRequest times the daemon's select-body parse on a
// canonical body, as encoding/json renders one.
func BenchmarkParseSelectRequest(b *testing.B) {
	body := []byte(`{"version":1,"profile":"gros","op":"allreduce","p":64,"m":1048576}`)
	var v SelectRequestView
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseSelectRequest(body, &v); err != nil {
			b.Fatal(err)
		}
	}
}
