// Webserver: embedding the decode service in an application's own HTTP
// server. The imaged package owns every endpoint, status code and
// admission rule; an application only mounts its handler under a path
// prefix next to its own routes. cmd/imaged is the standalone binary
// with flags and graceful drain. Run this and POST a JPEG:
//
//	go run ./examples/webserver
//	curl --data-binary @photo.jpg 'localhost:8080/img/decode?scale=1/2'
package main

import (
	"fmt"
	"log"
	"net/http"

	"hetjpeg"
	"hetjpeg/internal/imaged"
)

// newMux serves the decode service under /img/ beside the application's
// own routes.
func newMux(s *imaged.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/img/", http.StripPrefix("/img", s.Handler()))
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "POST a JPEG to /img/decode, or a multipart batch to /img/batch")
	})
	return mux
}

func main() {
	s, err := imaged.New(imaged.Config{Spec: hetjpeg.PlatformByName("GTX 560")})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	log.Fatal(http.ListenAndServe("localhost:8080", newMux(s)))
}
