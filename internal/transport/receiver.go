package transport

import (
	"net/http"

	"repro/internal/event"
)

// NotificationReceiver is the consumer-side callback endpoint: an
// http.Handler that accepts the notification POSTs the controller sends
// for a subscription and hands each decoded notification to the handler.
// A body that does not decode is answered non-2xx, which the controller
// counts as a failed delivery.
type NotificationReceiver struct {
	handle func(n *event.Notification)
}

// NewNotificationReceiver creates a receiver invoking handle per
// notification.
func NewNotificationReceiver(handle func(n *event.Notification)) *NotificationReceiver {
	return &NotificationReceiver{handle: handle}
}

// ServeHTTP implements http.Handler. The body format is sniffed, so
// one receiver serves XML and binary-codec subscriptions alike.
func (rc *NotificationReceiver) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := readRaw(r)
	if err != nil {
		writeXML(w, http.StatusBadRequest, &Fault{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	n, err := requestCodec(r, body).DecodeNotification(body)
	if err != nil {
		writeXML(w, http.StatusBadRequest, &Fault{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	rc.handle(n)
	w.WriteHeader(http.StatusNoContent)
}
