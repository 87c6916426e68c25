package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/xmlx"
)

// parentReadInquiryResponse is the inquiry response reader of the build
// before CDATA (82db5bc), kept verbatim: a mixed-version pair has a
// client running it.
func parentReadInquiryResponse(r *xmlx.Reader, m *inquiryResponse) {
	m.XMLName.Local = "inquiryResponse"
	r.Expect("<inquiryResponse>")
	for r.Peek("<notification>") {
		m.Notifications = append(m.Notifications, r.Elem("notification"))
	}
	r.Expect("</inquiryResponse>")
}

// parentDecodeInquiryResponse is what that build's Client.InquireIndex
// did with a response body.
func parentDecodeInquiryResponse(data []byte) ([]*event.Notification, error) {
	out, err := xmlx.Decode(data, parentReadInquiryResponse, xml.Unmarshal)
	if err != nil {
		return nil, err
	}
	notes := make([]*event.Notification, 0, len(out.Notifications))
	for _, raw := range out.Notifications {
		n, err := event.DecodeNotification([]byte(raw))
		if err != nil {
			return nil, err
		}
		notes = append(notes, n)
	}
	return notes, nil
}

// postInquiry sends an inquiry as any client would and returns the raw
// answer.
func postInquiry(t *testing.T, base string, req *inquiryRequest) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/ws/inquire", event.ContentTypeXML, bytes.NewReader(req.appendXML(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inquiry answered %d: %s", resp.StatusCode, body)
	}
	return resp, body
}

// Both directions of a mixed-version pair: this client reads the escaped
// answer a parent server sends (on the single-pass reader, no fallback),
// and a parent client reads this server's CDATA answer (through its
// encoding/xml fallback, since its reader declines CDATA).
func TestInquiryMixedVersions(t *testing.T) {
	var want []*event.Notification
	for _, n := range goldenTen {
		data, err := event.EncodeNotification(n)
		if err != nil {
			t.Fatal(err)
		}
		d, err := event.DecodeNotification(data)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}

	t.Run("new client, parent server", func(t *testing.T) {
		parent := httptest.NewServer(&requestRecorder{reply: map[string]string{"/ws/inquire": parentTenXML}})
		defer parent.Close()
		got, err := NewClient(parent.URL, nil).InquireIndex(context.Background(), "family-doctor", index.Inquiry{})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("InquireIndex = %+v, %v; want %+v", got, err, want)
		}
		if _, err := xmlx.Decode([]byte(parentTenXML), readInquiryResponse, func([]byte, any) error {
			return errors.New("declined")
		}); err != nil {
			t.Error("the reader left the parent's escaped form to encoding/xml")
		}
	})

	t.Run("parent client, new server", func(t *testing.T) {
		r := newRig(t)
		r.doctorPolicy(t)
		for i := 0; i < 3; i++ {
			r.produce(t, event.SourceID(fmt.Sprintf("src-%d", i)), "PRS-1")
		}
		_, body := postInquiry(t, r.ctrlServer.URL, &inquiryRequest{Actor: "family-doctor", PersonID: "PRS-1"})
		if !bytes.Contains(body, []byte("<notification><![CDATA[<wire ")) {
			t.Fatalf("answer carries no CDATA: %s", body)
		}
		if _, err := xmlx.Decode(body, parentReadInquiryResponse, func([]byte, any) error {
			return errors.New("declined")
		}); err == nil {
			t.Error("the parent's reader took CDATA; the test no longer exercises its fallback")
		}
		got, err := parentDecodeInquiryResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		mine, err := r.client.InquireIndex(context.Background(), "family-doctor", index.Inquiry{PersonID: "PRS-1"})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || !reflect.DeepEqual(got, mine) {
			t.Errorf("parent client read %+v, this client %+v", got, mine)
		}
	})
}

// An answer past net/http's 2 KiB response buffer still carries its
// length rather than going out chunked, so the client reads it into one
// buffer of that size.
func TestInquiryResponseIsSized(t *testing.T) {
	r := newRig(t)
	r.doctorPolicy(t)
	for i := 0; i < 10; i++ {
		r.produce(t, event.SourceID(fmt.Sprintf("src-%d", i)), "PRS-1")
	}
	resp, body := postInquiry(t, r.ctrlServer.URL, &inquiryRequest{Actor: "family-doctor", PersonID: "PRS-1"})
	if len(body) <= 2048 {
		t.Fatalf("a 10-result answer is %d bytes; the test needs more than 2048", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %q for a %d-byte body; want the length, no encoding",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	notes, err := decodeInquiryResponse(body)
	if err != nil || len(notes) != 10 {
		t.Errorf("decoded %d notifications, %v", len(notes), err)
	}
}
